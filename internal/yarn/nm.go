package yarn

import (
	"cmp"
	"slices"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// container is one YARN container, the paper's 1 core + 2 GB. A node's
// capacity is ContainersPerNode of them and every grant and reservation is
// one, so the ledger's books are always whole containers: a slot test is
// the same comparison in Resources, and utilization k·1000/n·1000 is the
// same correctly rounded float64 as k/n.
var container = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)}

// NodeManager owns one machine's containers (its core.Ledger), its
// checkpoint storage device, and its co-located DFS client. Dumps and
// restores issued by ApplicationMasters are timed against the node's
// device, which serializes them — the paper's per-node sequential
// checkpoint queue. Reservations are held for waiting preemptors whose
// victims are still draining dumps.
type NodeManager struct {
	core.Ledger
	id int
	// store is the view dumps and restores go through: the node's DFS
	// client itself, or the fault injector's wrapper of it when the run
	// injects store faults.
	store storage.Store

	// running holds the node's containers in ascending task-ID order;
	// allocSlot and releaseSlot are its only writers.
	running []*taskRun

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

// fits reports whether req may claim a container here: the ledger's rule,
// with req's reservation on this node, if it holds one, as its own. A
// crashed or declared-dead node offers nothing.
func (nm *NodeManager) fits(req *request) bool {
	if nm.crashed || nm.deadDeclared {
		return false
	}
	var own cluster.Resources
	if req.reservedOn == nm {
		own = container
	}
	return container.Fits(nm.AvailableFor(own))
}

func (nm *NodeManager) allocSlot(now sim.Time, t *taskRun) {
	nm.Alloc(now, container)
	i, _ := nm.runningIndex(t.spec.ID)
	nm.running = slices.Insert(nm.running, i, t)
}

func (nm *NodeManager) releaseSlot(now sim.Time, t *taskRun) {
	nm.Release(now, container)
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
