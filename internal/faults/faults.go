// Package faults provides deterministic, seeded fault injection for the
// checkpoint/restore stack: wrappers around storage.Store and
// dfs.Transport that fail operations with configurable probability, crash
// a DataNode after its Nth block write, tear block writes short, and add
// latency — the chaos harness the robustness tests drive the full
// preempt→checkpoint→restore cycle under.
//
// Every decision comes from one seeded PRNG behind a mutex, so a chaos
// run with a fixed seed injects exactly the same faults every time; the
// event-driven cluster emulation stays reproducible even while being
// sabotaged. Every injected fault is counted, as faults.injected.<mode>, in
// an obs.Registry — the run's, once Instrument hands it over — letting tests
// assert both that faults actually fired and that the system absorbed all of
// them.
package faults

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"preemptsched/internal/obs"
)

// ErrInjected is the sentinel wrapped by every injected fault, so tests
// and retry logic can tell sabotage from organic failures.
var ErrInjected = errors.New("faults: injected failure")

// Fault modes. Each injected fault increments the registry counter
// "faults.injected.<mode>". The names are dotted lowercase so the series
// satisfies the repo's metric-name contract (see internal/lint, metricname)
// and so reportcheck and dashboards can address it directly.
const (
	ModeNodeCrashes       = "node.crashes"
	ModeStoreCrashOps     = "store.crash.ops"
	ModeStoreCreateErrors = "store.create.errors"
	ModeTornWrites        = "torn.writes"
	ModeSilentTruncations = "silent.truncations"
	ModeTornWriteWrites   = "torn.write.writes"
	ModeTornWriteCloses   = "torn.write.closes"
	ModeNameNodeRPCErrors = "namenode.rpc.errors"
	ModeDeadNodeRPCs      = "dead.node.rpcs"
	ModeDataNodeRPCErrors = "datanode.rpc.errors"
	ModeCrashedWrites     = "crashed.writes"
	ModeBitFlips          = "bit.flips"
	ModeNMCrashes         = "nm.crashes"
	ModeNMPartitionDrops  = "nm.partition.drops"
	ModeHeartbeatDrops    = "heartbeats.dropped"
)

// Plan configures a fault scenario. The zero value injects nothing.
type Plan struct {
	// Seed feeds the PRNG behind every probabilistic decision.
	Seed int64

	// RPCErrorRate is the per-operation probability that a DataNode RPC
	// (read/write/delete block) fails before reaching the node.
	RPCErrorRate float64
	// RPCErrorNodes restricts RPCErrorRate to these DataNode IDs; empty
	// means every node is eligible.
	RPCErrorNodes []string
	// NameNodeErrorRate is the per-operation probability that a NameNode
	// RPC fails before reaching the NameNode.
	NameNodeErrorRate float64

	// CrashNode names a DataNode that crashes permanently after it has
	// accepted CrashAfterWrites block writes: the write that would be
	// number CrashAfterWrites+1 fails mid-flight and every operation on
	// the node fails from then on.
	CrashNode        string
	CrashAfterWrites int
	// OnCrash, when set, runs once at the moment CrashNode dies (e.g. to
	// trigger a NameNode decommission sweep).
	OnCrash func(id string)

	// BitFlipRate is the per-replica-write probability that the block's
	// bytes rot at rest AFTER landing: one bit of the stored payload is
	// flipped underneath its checksums, the silent disk corruption the
	// integrity machinery exists to catch. The write itself succeeds — the
	// damage is only visible to checksum verification on a later read or
	// scrub.
	BitFlipRate float64
	// BitFlipMaxPerBlock caps how many replicas of any one block may be
	// bit-flipped. Zero means DefaultBitFlipMaxPerBlock (1), which with
	// 3-way replication guarantees a strict minority of each block's
	// replicas is corrupt, so every read can still fail over to a clean
	// copy.
	BitFlipMaxPerBlock int

	// CreateFailRate is the per-operation probability that a store Create
	// fails outright (the checkpoint dump cannot even start).
	CreateFailRate float64
	// TornWriteRate is the per-Create probability that the returned
	// writer tears: it accepts TornWriteBytes bytes, then fails every
	// subsequent write and the close — a short/torn block write.
	TornWriteRate float64
	// TornWriteBytes is how many bytes a torn writer accepts before
	// failing. Zero means DefaultTornWriteBytes.
	TornWriteBytes int64
	// SilentTruncateRate is the per-Create probability that the returned
	// writer silently drops everything past SilentTruncateBytes: unlike a
	// torn write, every Write and the Close SUCCEED, so the caller believes
	// the object was fully published. Only end-to-end verification (image
	// CRC trailers, restore manifests) can catch it.
	SilentTruncateRate float64
	// SilentTruncateBytes is how many bytes a silently truncating writer
	// keeps. Zero means DefaultTornWriteBytes.
	SilentTruncateBytes int64
	// StoreCrashAfterCreates, when > 0, kills the wrapped store after that
	// many successful Creates: every later operation fails. Wrapped around
	// a NameNode's journal store, this is a NameNode process dying between
	// journal records mid-workload.
	StoreCrashAfterCreates int

	// Compute-node (NodeManager) fault modes. Unlike the DFS and store
	// faults above, these fire on the cluster emulation's virtual clock:
	// the injector supplies only the seeded decisions and the fault
	// counters, while internal/yarn schedules the events themselves.

	// NMCrashAt, when > 0, crashes one NodeManager permanently at that
	// virtual time: its container processes die on the spot and its
	// heartbeats stop, so the RM's liveness sweep declares the node dead
	// one timeout later and reschedules its tasks.
	NMCrashAt time.Duration
	// NMCrashNode is the 0-based index of the NodeManager NMCrashAt kills.
	NMCrashNode int

	// NMPartitionAt, when > 0, partitions one NodeManager from the RM at
	// that virtual time: the node keeps running its containers but its
	// heartbeats stop arriving. A partition outlasting the liveness
	// timeout gets the node declared dead and its containers fenced; when
	// the partition heals NMPartitionFor later the node re-registers
	// empty.
	NMPartitionAt time.Duration
	// NMPartitionNode is the 0-based index of the partitioned NodeManager.
	NMPartitionNode int
	// NMPartitionFor is how long the partition lasts. Zero with
	// NMPartitionAt > 0 means the partition never heals.
	NMPartitionFor time.Duration

	// HeartbeatDropRate is the per-heartbeat probability that an NM
	// heartbeat is lost in flight. Enough consecutive drops look exactly
	// like a partition to the RM's liveness sweep.
	HeartbeatDropRate float64
}

// HasNMFaults reports whether the plan schedules any compute-node
// faults. The yarn cluster uses it to auto-enable the liveness sweep:
// an NM fault without a sweep would strand the node's tasks forever.
func (p Plan) HasNMFaults() bool {
	return p.NMCrashAt > 0 || p.NMPartitionAt > 0 || p.HeartbeatDropRate > 0
}

// Injects reports whether the plan injects anything at all. The zero value
// does not, and neither does a plan that carries only a seed, node indexes,
// caps or sizes — those shape faults, they do not arm one.
func (p Plan) Injects() bool {
	return p.RPCErrorRate > 0 || p.NameNodeErrorRate > 0 || p.CrashNode != "" ||
		p.BitFlipRate > 0 || p.CreateFailRate > 0 || p.TornWriteRate > 0 || p.SilentTruncateRate > 0 ||
		p.StoreCrashAfterCreates > 0 || p.HasNMFaults()
}

// BindFlags declares on fs the fault-injection flags cmd/clusterrun and
// cmd/clusterd share, parsing into p. A binary with more of the plan to
// offer binds its own flags to p's other fields.
func (p *Plan) BindFlags(fs *flag.FlagSet) {
	fs.Int64Var(&p.Seed, "fault-seed", 1, "fault-injection PRNG seed")
	fs.Float64Var(&p.RPCErrorRate, "fault-rpc-rate", 0, "probability a DataNode RPC fails")
	fs.Float64Var(&p.NameNodeErrorRate, "fault-nn-rate", 0, "probability a NameNode RPC fails")
	fs.Float64Var(&p.CreateFailRate, "fault-create-rate", 0, "probability a checkpoint store create fails")
	fs.Float64Var(&p.TornWriteRate, "fault-torn-rate", 0, "probability a checkpoint write tears short")
	fs.IntVar(&p.NMCrashNode, "fault-nm-crash-node", 0, "NodeManager index that crashes at -fault-nm-crash-at")
	fs.DurationVar(&p.NMCrashAt, "fault-nm-crash-at", 0, "virtual time the NodeManager crash fires (0 = never)")
	fs.IntVar(&p.NMPartitionNode, "fault-nm-partition-node", 0, "NodeManager index partitioned from the RM at -fault-nm-partition-at")
	fs.DurationVar(&p.NMPartitionAt, "fault-nm-partition-at", 0, "virtual time the RM<->NM partition opens (0 = never)")
	fs.DurationVar(&p.NMPartitionFor, "fault-nm-partition-for", 0, "partition duration before it heals (0 = never heals)")
	fs.Float64Var(&p.HeartbeatDropRate, "fault-nm-beat-drop-rate", 0, "probability an NM heartbeat is dropped on the wire")
}

// Validate rejects plans whose probabilities or node-fault shapes are
// out of range. The zero value is valid (and injects nothing).
func (p Plan) Validate() error {
	// Slices, not maps: with two fields out of range the error must name
	// the same one — the first declared — on every run.
	for _, f := range []struct {
		name string
		rate float64
	}{
		{"RPCErrorRate", p.RPCErrorRate},
		{"NameNodeErrorRate", p.NameNodeErrorRate},
		{"BitFlipRate", p.BitFlipRate},
		{"CreateFailRate", p.CreateFailRate},
		{"TornWriteRate", p.TornWriteRate},
		{"SilentTruncateRate", p.SilentTruncateRate},
		{"HeartbeatDropRate", p.HeartbeatDropRate},
	} {
		if f.rate < 0 || f.rate > 1 {
			return fmt.Errorf("faults: %s %v is outside [0,1]", f.name, f.rate)
		}
	}
	if p.NMCrashNode < 0 {
		return fmt.Errorf("faults: NMCrashNode %d is negative", p.NMCrashNode)
	}
	if p.NMPartitionNode < 0 {
		return fmt.Errorf("faults: NMPartitionNode %d is negative", p.NMPartitionNode)
	}
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"NMCrashAt", p.NMCrashAt},
		{"NMPartitionAt", p.NMPartitionAt},
		{"NMPartitionFor", p.NMPartitionFor},
	} {
		if f.d < 0 {
			return fmt.Errorf("faults: %s %v is negative", f.name, f.d)
		}
	}
	return nil
}

// DefaultTornWriteBytes is how much of a torn or silently truncated write
// lands before the cut when the plan does not say otherwise. It sits below
// the images a yarn run writes, so a plan that sets only a rate damages
// them: the smallest full image of a default clusterrun run is 16,592
// bytes and its incremental images are about 8.4 KiB. Manifests (under
// 100 bytes) and near-empty deltas fit under the cut and pass intact.
const DefaultTornWriteBytes int64 = 4 << 10

// DefaultBitFlipMaxPerBlock keeps at-rest corruption to one replica per
// block unless the plan says otherwise.
const DefaultBitFlipMaxPerBlock = 1

// Injector is the seeded decision source shared by all wrappers of one
// scenario. It is safe for concurrent use.
type Injector struct {
	plan Plan

	mu sync.Mutex
	// reg counts the faults; fired holds the handle of every mode that has.
	reg        *obs.Registry
	fired      map[string]obs.Counter
	rng        *rand.Rand
	crashed    map[string]bool
	crashSeen  int
	rpcTargets map[string]bool
	// flips counts bit-flipped replicas per block, enforcing
	// BitFlipMaxPerBlock.
	flips map[int64]int
	// createSeen / storeDead drive StoreCrashAfterCreates.
	createSeen int
	storeDead  bool
}

// NewInjector builds the decision source for plan.
func NewInjector(plan Plan) *Injector {
	in := &Injector{
		plan:    plan,
		reg:     obs.NewRegistry(),
		fired:   make(map[string]obs.Counter),
		rng:     rand.New(rand.NewSource(plan.Seed)),
		crashed: make(map[string]bool),
		flips:   make(map[int64]int),
	}
	if len(plan.RPCErrorNodes) > 0 {
		in.rpcTargets = make(map[string]bool, len(plan.RPCErrorNodes))
		for _, id := range plan.RPCErrorNodes {
			in.rpcTargets[id] = true
		}
	}
	return in
}

// Instrument directs the faults.injected.<mode> counters into reg, the run's
// registry, so a fault is counted once, in the series the report reads. Until
// then the injector counts into a private one; call Instrument before the
// first wrapped operation, since a mode that has fired stays where it started.
func (in *Injector) Instrument(reg *obs.Registry) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reg = reg
}

// count books one injected fault of mode.
func (in *Injector) count(mode string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.fired[mode]; !ok {
		//lint:ignore metricname mode is always one of the dotted Mode* constants above; the indirection is the injector's whole API
		in.fired[mode] = in.reg.Counter("faults.injected." + mode)
	}
	in.fired[mode].Inc()
}

// Plan returns the scenario being injected. The node list is detached
// so a caller sorting or rewriting it cannot corrupt the injector's
// targeting mid-run.
func (in *Injector) Plan() Plan {
	p := in.plan
	p.RPCErrorNodes = append([]string(nil), p.RPCErrorNodes...)
	return p
}

// roll returns true with probability p.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

// inject counts one fault of the given mode and returns the error to
// surface.
func (in *Injector) inject(mode string, detail string) error {
	in.count(mode)
	return fmt.Errorf("%w: %s (%s)", ErrInjected, mode, detail)
}

// rpcEligible reports whether node id is in scope for RPC error injection.
func (in *Injector) rpcEligible(id string) bool {
	return in.rpcTargets == nil || in.rpcTargets[id]
}

// nodeCrashed reports whether id has already crashed.
func (in *Injector) nodeCrashed(id string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[id]
}

// noteBitFlip decides whether the replica of block just written should
// rot at rest, respecting the per-block flip cap, and returns the bit to
// flip. All decisions come from the seeded PRNG, so a scenario flips the
// same bits of the same blocks every run.
func (in *Injector) noteBitFlip(block int64) (bit int, ok bool) {
	if in.plan.BitFlipRate <= 0 {
		return 0, false
	}
	max := in.plan.BitFlipMaxPerBlock
	if max <= 0 {
		max = DefaultBitFlipMaxPerBlock
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.flips[block] >= max {
		return 0, false
	}
	if in.plan.BitFlipRate < 1 && in.rng.Float64() >= in.plan.BitFlipRate {
		return 0, false
	}
	in.flips[block]++
	bit = in.rng.Intn(1 << 20)
	return bit, true
}

// noteCreate records one successful store Create and reports whether the
// store has now crashed (StoreCrashAfterCreates reached).
func (in *Injector) noteCreate() bool {
	if in.plan.StoreCrashAfterCreates <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.storeDead {
		return true
	}
	in.createSeen++
	if in.createSeen >= in.plan.StoreCrashAfterCreates {
		in.storeDead = true
	}
	return false
}

// storeCrashed reports whether StoreCrashAfterCreates has fired.
func (in *Injector) storeCrashed() bool {
	if in.plan.StoreCrashAfterCreates <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.storeDead
}

// DropHeartbeat decides whether one NM heartbeat is lost in flight
// (HeartbeatDropRate) and counts the drop.
func (in *Injector) DropHeartbeat() bool {
	if !in.roll(in.plan.HeartbeatDropRate) {
		return false
	}
	in.count(ModeHeartbeatDrops)
	return true
}

// NoteNMCrash counts the configured NodeManager crash firing.
func (in *Injector) NoteNMCrash() { in.count(ModeNMCrashes) }

// NotePartitionDrop counts one heartbeat suppressed by an active RM↔NM
// partition.
func (in *Injector) NotePartitionDrop() { in.count(ModeNMPartitionDrops) }

// noteWrite records a block write accepted by id and decides whether this
// write is the one that kills the configured crash node. It returns true
// when the write must fail because the node crashes now.
func (in *Injector) noteWrite(id string) bool {
	if id != in.plan.CrashNode {
		return false
	}
	in.mu.Lock()
	if in.crashed[id] {
		in.mu.Unlock()
		return true
	}
	if in.crashSeen < in.plan.CrashAfterWrites {
		in.crashSeen++
		in.mu.Unlock()
		return false
	}
	in.crashed[id] = true
	in.mu.Unlock()
	in.count(ModeNodeCrashes)
	if in.plan.OnCrash != nil {
		in.plan.OnCrash(id)
	}
	return true
}
