package yarn

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/dfs"
	"preemptsched/internal/energy"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// NodeManager owns one machine's container slots, its checkpoint storage
// device, and its co-located DFS client. Dumps and restores issued by
// ApplicationMasters are timed against the node's device, which serializes
// them — the paper's per-node sequential checkpoint queue.
type NodeManager struct {
	id        int
	slots     int
	usedSlots int
	// reservedSlots are held for waiting preemptors whose victims are
	// still draining dumps.
	reservedSlots int

	device *storage.Device
	dfsCli *dfs.Client
	// store is the view dumps and restores go through: the DFS client
	// itself, or the fault injector's wrapper of it when the run injects
	// store faults.
	store storage.Store

	// running holds the node's containers in ascending task-ID order;
	// allocSlot and releaseSlot are its only writers.
	running []*taskRun

	meter      *energy.Meter
	lastChange sim.Time
	// queuePeak is the longest a dump has queued for this node's device.
	queuePeak obs.Gauge

	// Liveness state, owned by the engine goroutine. crashed marks a
	// permanently dead machine (NM crash fault): its container processes
	// died with it. deadDeclared is the RM's view — a declared-dead node
	// takes no placements until a delivered heartbeat re-registers it.
	// lastBeat is the last heartbeat the RM received from this node.
	crashed      bool
	deadDeclared bool
	lastBeat     sim.Time
}

func newNodeManager(id int, cfg Config, dev *storage.Device, cli *dfs.Client, store storage.Store, queuePeak obs.Gauge) *NodeManager {
	return &NodeManager{
		id:        id,
		slots:     cfg.ContainersPerNode,
		device:    dev,
		dfsCli:    cli,
		store:     store,
		meter:     energy.NewMeter(cfg.EnergyModel),
		queuePeak: queuePeak,
	}
}

// ID returns the node index.
func (nm *NodeManager) ID() int { return nm.id }

// Device returns the node's checkpoint device.
func (nm *NodeManager) Device() *storage.Device { return nm.device }

func (nm *NodeManager) freeSlots() int { return nm.slots - nm.usedSlots }

// availableFor is the slot count a request may claim, accounting for
// reservations (its own reservation counts as available). A crashed or
// declared-dead node offers nothing.
func (nm *NodeManager) availableFor(req *request) int {
	if nm.crashed || nm.deadDeclared {
		return 0
	}
	avail := nm.freeSlots() - nm.reservedSlots
	if req != nil && req.reservedOn == nm {
		avail++
	}
	if avail > nm.freeSlots() {
		avail = nm.freeSlots()
	}
	if avail < 0 {
		avail = 0
	}
	return avail
}

func (nm *NodeManager) settleEnergy(now sim.Time) {
	if now > nm.lastChange {
		util := float64(nm.usedSlots) / float64(nm.slots)
		nm.meter.Accumulate(util, time.Duration(now-nm.lastChange))
		nm.lastChange = now
	}
}

func (nm *NodeManager) allocSlot(now sim.Time, t *taskRun) {
	nm.settleEnergy(now)
	nm.usedSlots++
	if nm.usedSlots > nm.slots {
		panic(fmt.Sprintf("yarn: node %d over-allocated (%d/%d)", nm.id, nm.usedSlots, nm.slots))
	}
	i, _ := nm.runningIndex(t.spec.ID)
	nm.running = slices.Insert(nm.running, i, t)
}

func (nm *NodeManager) releaseSlot(now sim.Time, t *taskRun) {
	nm.settleEnergy(now)
	nm.usedSlots--
	if nm.usedSlots < 0 {
		panic(fmt.Sprintf("yarn: node %d released into negative", nm.id))
	}
	if i, held := nm.runningIndex(t.spec.ID); held {
		nm.running = slices.Delete(nm.running, i, i+1)
	}
}

// runningIndex is the position of task id in running and whether it is
// there; if not, the position that keeps the order (job, then index).
func (nm *NodeManager) runningIndex(id cluster.TaskID) (int, bool) {
	return slices.BinarySearchFunc(nm.running, id, func(r *taskRun, id cluster.TaskID) int {
		return cmp.Or(cmp.Compare(r.spec.ID.Job, id.Job), cmp.Compare(r.spec.ID.Index, id.Index))
	})
}
