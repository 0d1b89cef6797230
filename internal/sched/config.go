// Package sched implements the paper's trace-driven cluster scheduling
// simulator (Section 3.3.2): a cluster of nodes executing prioritized jobs
// under one of four preemption policies (wait, kill, basic checkpoint,
// adaptive), with checkpoint and restore costs charged to per-node storage
// devices, restore placement per Algorithm 2, per-node sequential
// checkpoint queues, and energy metered from node utilization.
//
// The simulator runs on the deterministic discrete-event engine; a given
// (config, job list) pair always produces identical results.
package sched

import (
	"fmt"
	"sort"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// Discipline selects how the scheduler arbitrates contention — which
// queued task goes first and which running tasks are legitimate preemption
// victims. The paper's system model (Section 3.1) names all three;
// priority scheduling is what its experiments use.
type Discipline int

const (
	// DisciplinePriority orders by task priority; higher priorities
	// preempt strictly lower ones.
	DisciplinePriority Discipline = iota + 1
	// DisciplineFairShare balances dominant resource shares across users:
	// under-served users schedule first and may preempt tasks of users
	// running beyond their equal share.
	DisciplineFairShare
	// DisciplineCapacity guarantees each priority band a capacity
	// fraction; a band below its guarantee may reclaim resources from
	// bands above theirs.
	DisciplineCapacity
)

func (d Discipline) String() string {
	switch d {
	case DisciplinePriority:
		return "priority"
	case DisciplineFairShare:
		return "fair-share"
	case DisciplineCapacity:
		return "capacity"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// DefaultCapacityGuarantees is the per-band capacity split
// DisciplineCapacity guarantees: low-priority batch gets the largest
// guaranteed pool, production the smallest — production bursts above their
// guarantee are what preemption reclaims.
var DefaultCapacityGuarantees = [cluster.NumBands]float64{0.45, 0.35, 0.20}

// Config parameterizes a simulation run: the cluster both schedulers share
// (core.ClusterConfig) plus what only the trace simulator models. The run
// is observed through ClusterConfig.Observer, which receives every edge
// once (including EvPlace and EvVacate, which only this layer reports),
// and through the sampler below.
type Config struct {
	core.ClusterConfig
	// NodeCapacity is the per-machine resources.
	NodeCapacity cluster.Resources
	// Discipline selects the contention arbitration rule. Zero means
	// DisciplinePriority.
	Discipline Discipline
	// MaxEvictionsPerTask caps how many times one task may be preempted
	// (the eviction-threshold policy of Cavdar et al.); 0 means no cap.
	MaxEvictionsPerTask int
	// DisableIncremental forces every checkpoint to be a full dump
	// (ablation of the incremental-checkpointing optimization).
	DisableIncremental bool
	// NaiveVictimSelection disables cost-aware eviction under the
	// adaptive policy (ablation): victims are picked by priority and age
	// only.
	NaiveVictimSelection bool
	// DisableRestorePlacement disables Algorithm 2 (ablation): restores
	// take the first node with capacity regardless of image locality.
	DisableRestorePlacement bool
	// NodeFailures lists seeded compute-node outages. Unlike the yarn
	// model — where the RM discovers death through missed heartbeats —
	// the trace simulator applies each outage instantly at its configured
	// time: running tasks are fenced, their unsaved progress is charged as
	// failure waste, and they requeue through the normal placement path
	// (restoring from a surviving checkpoint image when one exists). The
	// detection delay is a deliberate simplification; the yarn layer
	// models it.
	NodeFailures []NodeFailure
	// SampleEvery, when positive together with OnSample, arms a periodic
	// sampler on the virtual clock reporting queue depth, tasks in
	// flight, and cumulative decision counts. The sampler re-arms only
	// while other events remain, so it never extends a run.
	SampleEvery time.Duration
	OnSample    func(Sample)
}

// dirtyFloor is the fraction of a task's footprint considered dirty right
// after a restore; dirtiness then grows linearly with run time. Table 3's
// experiment modifies 10% between dumps.
const dirtyFloor = 0.12

// scanLimit bounds how many queued tasks each scheduling pass examines; it
// trades head-of-line fidelity for simulation speed.
const scanLimit = 64

// NodeFailure is one seeded outage of a simulated machine.
type NodeFailure struct {
	// Node is the index of the machine that fails.
	Node int
	// At is the virtual time the machine dies.
	At time.Duration
	// RecoverAfter, when positive, brings the machine back that long
	// after At (a rebooted or healed node); zero keeps it dead for the
	// rest of the run.
	RecoverAfter time.Duration
}

// DefaultConfig returns a mid-size cluster on the given storage with the
// given policy.
func DefaultConfig(policy core.Policy, kind storage.Kind) Config {
	return Config{
		ClusterConfig: core.ClusterConfig{Nodes: 64, Policy: policy, StorageKind: kind},
		NodeCapacity:  cluster.Resources{CPUMillis: cluster.Cores(16), MemBytes: cluster.GiB(64)},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.ClusterConfig.Validate(); err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	if c.NodeCapacity.CPUMillis <= 0 || c.NodeCapacity.MemBytes <= 0 {
		return fmt.Errorf("sched: non-positive node capacity %v", c.NodeCapacity)
	}
	switch c.Discipline {
	case 0, DisciplinePriority, DisciplineFairShare, DisciplineCapacity:
	default:
		return fmt.Errorf("sched: invalid discipline %v", c.Discipline)
	}
	if c.MaxEvictionsPerTask < 0 {
		return fmt.Errorf("sched: negative eviction cap")
	}
	for i, f := range c.NodeFailures {
		if f.Node < 0 || f.Node >= c.Nodes {
			return fmt.Errorf("sched: NodeFailures[%d].Node=%d outside [0,%d)", i, f.Node, c.Nodes)
		}
		if f.At < 0 {
			return fmt.Errorf("sched: NodeFailures[%d].At=%v is negative", i, f.At)
		}
		if f.RecoverAfter < 0 {
			return fmt.Errorf("sched: NodeFailures[%d].RecoverAfter=%v is negative", i, f.RecoverAfter)
		}
	}
	return nil
}

// withDefaults fills zero-valued optional fields.
func (c Config) withDefaults() Config {
	if c.Discipline == 0 {
		c.Discipline = DisciplinePriority
	}
	return c
}

// Result is a simulation run's outcome: the quantities the paper's figures
// report on both substrates (core.Outcome) plus what only the trace
// simulator measures.
type Result struct {
	core.Outcome

	// JobResponseByUser holds each tenant's mean job response time in
	// seconds, for tenants with a finished job: the input to fairness
	// comparisons across scheduling disciplines.
	JobResponseByUser map[string]float64

	// Decisions counts scheduling decisions: successful placements plus
	// preemption verdicts. EventsFired is the total number of
	// discrete-event callbacks the engine executed. Together they are
	// the numerators of the density suite's sustained-rate metrics.
	Decisions   uint64
	EventsFired uint64
	// PeakInFlight is the high-water mark of tasks holding node
	// resources (running, checkpointing, or restoring).
	PeakInFlight int
}

// FairnessIndex returns Jain's fairness index over per-user mean response
// times (1 = perfectly equal, 1/n = maximally skewed). It compares how
// evenly the scheduling disciplines treat tenants.
func (r *Result) FairnessIndex() float64 {
	var xs []float64
	for _, mean := range r.JobResponseByUser {
		xs = append(xs, mean)
	}
	if len(xs) == 0 {
		return 0
	}
	// Fix the addend order: float addition is non-associative, and map
	// range would make the reported index vary bit-for-bit run to run.
	sort.Float64s(xs)
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunSpec is one independent simulation in a sweep: a sized configuration
// and the jobs it executes. Specs must not share Jobs slices — the
// simulator takes pointers into the slice it is handed, so concurrent
// runs over one slice would couple otherwise-independent virtual clocks.
// A sweep fans its specs out with core.ForEachIndex, each run writing its
// own result slot, so the results are those of sequential Runs at every
// parallelism level (DESIGN.md §11).
type RunSpec struct {
	Config Config
	Jobs   []cluster.JobSpec
}
