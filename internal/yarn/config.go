// Package yarn implements a miniature resource-management framework in the
// architecture of Hadoop YARN (Section 5 of the paper): a ResourceManager
// arbitrating fixed-size containers across NodeManagers, one
// ApplicationMaster per job in the style of DistributedShell, and a
// Preemption Manager inside the AM that services ContainerPreemptEvents by
// checkpointing or killing containers.
//
// Unlike the trace-driven simulator (internal/sched), tasks here are real
// virtual processes (k-means by default): preemption takes actual CRIU-style
// dumps of process pages into the distributed file system, restores rebuild
// runnable processes — on the image's home node when it has a free slot,
// otherwise on the first node that fits, paying the network transfer (this
// is not Algorithm 2, which the framework does not implement) — and
// completed tasks yield verifiable results. Only durations come from the
// calibrated device models; every state transition moves real bytes.
package yarn

import (
	"context"
	"flag"
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// Config parameterizes a framework run: the cluster both schedulers share
// (core.ClusterConfig, one node per NodeManager) plus what only the
// framework runs. The defaults mirror the paper's testbed: 8 nodes, 24
// containers each, 1 core + 2 GB per container.
type Config struct {
	core.ClusterConfig
	// ContainersPerNode is the slot count per node.
	ContainersPerNode int
	// Replication is the DFS replication factor.
	Replication int

	// Program selects the real application each container runs:
	// "kmeans" (default, the paper's workload) or "wordcount" (the
	// MapReduce-style job of the paper's future work). Either way the
	// checkpointable footprint comes from each task's spec
	// (MemFootprint), scaled logically over the real pages.
	Program string

	// KMeans problem shape per task (Program == "kmeans").
	KMeansPoints int
	KMeansDims   int
	KMeansK      int
	KMeansIters  int

	// WordCount job shape per task (Program == "wordcount").
	WordCountInput int
	WordCountChunk int

	// CompactChainAfter, when positive, merges a task's incremental image
	// chain into a single full image once it exceeds this many links.
	// Compaction runs in the background (device time, no task freeze) and
	// bounds restore-time chain walks.
	CompactChainAfter int

	// ScrubEveryNDumps, when positive, runs one integrity scrub pass over
	// every DataNode after each N checkpoint dumps: all stored blocks are
	// re-verified against their checksums, corrupt replicas are evicted,
	// reported, and re-replicated from clean copies. Counting dumps instead
	// of wall time keeps scrubbing inside the virtual clock — the emulation
	// equivalent of cmd/dfs's -scrub-interval ticker. 0 disables scrubbing.
	ScrubEveryNDumps int

	// Tracer, when non-nil, records per-task checkpoint/restore lifecycle
	// spans (policy-decision → dump → queue-wait → restore) in virtual
	// time, exportable as a Chrome trace_event file. Nil disables tracing
	// at near-zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives latency histograms, gauges, and
	// counters from every layer of the run (yarn.*, dfs.client.*,
	// checkpoint.*). When nil, Run still builds a private registry so
	// Result.Metrics is always populated.
	Metrics *obs.Registry

	// NMLivenessTimeout is how long the RM tolerates a silent
	// NodeManager before its sweep declares the node dead, fences its
	// containers, and reschedules the lost tasks through the AM's
	// degradation ladder (latest verified image → older image →
	// restart). NodeManagers heartbeat, and the sweep runs, every 10s of
	// virtual time while it is positive. Zero disables the liveness loop —
	// unless Config.Faults schedules compute-node faults, in which case
	// withDefaults arms it at DefaultNMLivenessBeats heartbeats (an NM
	// fault without a sweep would strand the node's tasks forever).
	NMLivenessTimeout time.Duration

	// Faults, when non-nil, injects the configured fault scenario into
	// the DFS substrate, the checkpoint store, and the compute nodes:
	// DataNode RPC drops, a DataNode crash at the Nth block write, failed
	// or torn dump writes, a NodeManager crash or RM↔NM partition at a
	// virtual time, dropped heartbeats. The stack is expected to absorb
	// all of them — reads fail over, pipelines are rebuilt, crashed nodes
	// are decommissioned and their blocks re-replicated, failed dumps
	// degrade to kill-based preemption, failed restores fall back to
	// older images or a restart, and tasks lost with their node resume
	// from their latest verified checkpoint image. The injector is
	// seeded, so faulted runs stay deterministic.
	Faults *faults.Plan

	// clientCtx, when non-nil, is threaded into every node's DFS client so
	// an aborting service can cut its real-TCP retry loops short. Service
	// mode sets it; batch Run leaves it nil (the in-process transport never
	// blocks, so there is nothing to cancel).
	clientCtx context.Context
}

// DefaultConfig returns the paper's cluster shape for the given policy and
// storage.
func DefaultConfig(policy core.Policy, kind storage.Kind) Config {
	return Config{
		ClusterConfig:     core.ClusterConfig{Nodes: 8, Policy: policy, StorageKind: kind},
		ContainersPerNode: 24,
		Replication:       3,
		Program:           "kmeans",
		KMeansPoints:      240,
		KMeansDims:        4,
		KMeansK:           4,
		KMeansIters:       10,
		WordCountInput:    8192,
		WordCountChunk:    512,
	}
}

// BindFlags declares on fs the cluster-shape and liveness flags
// cmd/clusterrun and cmd/clusterd share, parsing into c; c's values at the
// call are the defaults the flags print. (The fault-injection flags the two
// also share are faults.Plan.BindFlags.)
func (c *Config) BindFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Nodes, "nodes", c.Nodes, "NodeManager count (paper: 8)")
	fs.IntVar(&c.ContainersPerNode, "slots", c.ContainersPerNode, "containers per node (paper: 24)")
	fs.StringVar(&c.Program, "program", c.Program, "per-task application: kmeans|wordcount")
	fs.BoolVar(&c.PreCopy, "precopy", c.PreCopy, "use pre-copy checkpointing (dump while the victim runs)")
	fs.DurationVar(&c.NMLivenessTimeout, "nm-heartbeat-timeout", c.NMLivenessTimeout, "silence after which the RM declares a node dead (0 = auto-armed with NM faults)")
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.ClusterConfig.Validate(); err != nil {
		return fmt.Errorf("yarn: %w", err)
	}
	if c.ContainersPerNode <= 0 {
		return fmt.Errorf("yarn: ContainersPerNode=%d must be positive", c.ContainersPerNode)
	}
	if c.StorageKind == storage.NVRAM && c.CustomBandwidth == 0 {
		return fmt.Errorf("yarn: NVRAM storage is simulator-only: a local resume there remaps pages, and the framework reads every image back through the DFS")
	}
	if c.Replication <= 0 {
		return fmt.Errorf("yarn: replication %d must be positive", c.Replication)
	}
	switch c.Program {
	case "", "kmeans":
		if c.KMeansPoints < c.KMeansK || c.KMeansK <= 0 || c.KMeansDims <= 0 || c.KMeansIters <= 0 {
			return fmt.Errorf("yarn: bad k-means shape %d/%d/%d/%d", c.KMeansPoints, c.KMeansDims, c.KMeansK, c.KMeansIters)
		}
	case "wordcount":
		if c.WordCountInput <= 0 || c.WordCountChunk <= 0 {
			return fmt.Errorf("yarn: bad word-count shape %d/%d", c.WordCountInput, c.WordCountChunk)
		}
	default:
		return fmt.Errorf("yarn: unknown program %q (want kmeans|wordcount)", c.Program)
	}
	if c.NMLivenessTimeout < 0 {
		return fmt.Errorf("yarn: negative NM liveness timeout")
	}
	if c.NMLivenessTimeout > 0 && c.NMLivenessTimeout < nmHeartbeatEvery {
		return fmt.Errorf("yarn: NMLivenessTimeout %v shorter than the heartbeat period %v — every sweep would declare every node dead",
			c.NMLivenessTimeout, nmHeartbeatEvery)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("yarn: %w", err)
		}
		if c.Faults.NMCrashAt > 0 && c.Faults.NMCrashNode >= c.Nodes {
			return fmt.Errorf("yarn: NMCrashNode %d out of range (cluster has %d nodes)", c.Faults.NMCrashNode, c.Nodes)
		}
		if c.Faults.NMPartitionAt > 0 && c.Faults.NMPartitionNode >= c.Nodes {
			return fmt.Errorf("yarn: NMPartitionNode %d out of range (cluster has %d nodes)", c.Faults.NMPartitionNode, c.Nodes)
		}
	}
	return nil
}

// DefaultNMLivenessBeats is how many consecutive missed heartbeats get
// a node declared dead when a fault plan arms the liveness sweep
// without an explicit timeout.
const DefaultNMLivenessBeats = 3

func (c Config) withDefaults() Config {
	if c.Program == "" {
		c.Program = "kmeans"
	}
	if c.NMLivenessTimeout == 0 && c.Faults != nil && c.Faults.HasNMFaults() {
		c.NMLivenessTimeout = DefaultNMLivenessBeats * nmHeartbeatEvery
	}
	return c
}

// Result is one framework run's outcome: the quantities of the paper's
// Figures 8-12 (core.Outcome, shared with the trace simulator) plus what
// only a run on real processes and a real DFS can measure.
type Result struct {
	core.Outcome

	// Compactions counts chain-merge operations.
	Compactions int
	// RestoreFailures counts restore attempts that found a corrupt or
	// unreadable image. Each failed attempt drops one link off the image
	// chain: the next attempt targets the parent image (counted in
	// RestoreFallbacks when it exists), and an exhausted chain restarts
	// the task from scratch (RestoreRestarts). The attempts the dump's
	// manifest rejected are Metrics' checkpoint.verify.failures.
	RestoreFailures int
	// RestoreFallbacks counts restores that fell back to an older image
	// in the incremental chain after the newer link failed.
	RestoreFallbacks int
	// RestoreRestarts counts tasks restarted from scratch after every
	// image in their chain proved unusable.
	RestoreRestarts int
	// DumpFailures counts checkpoint dumps (full, incremental, or
	// pre-copy) that failed against the store.
	DumpFailures int
	// FallbackKills counts preemptions that degraded to a kill because
	// a checkpoint dump failed. They are included in Kills: each
	// kill-fallback event moves its checkpoint verdict over to Kills
	// (core.Outcome.Count), so a pre-copy whose freeze dump fails is a
	// kill, and its landed pre-dump counts only in PreCopies.
	FallbackKills int
	JobsCompleted int

	// FinalScrubCorrupt is what the end-of-run verification scrub still
	// found after a healing pass: zero proves the cluster converged back
	// to zero corrupt replicas. Only meaningful when ScrubEveryNDumps > 0.
	FinalScrubCorrupt int64

	// DFSStoredBytes is the real byte count resident in the DFS at the
	// high-water mark (before logical scaling).
	DFSStoredBytes int64

	// TaskChecksums holds a checksum of each task's final computed state,
	// proving that preempted-and-resumed executions produced exactly the
	// results of undisturbed ones. Only Run keeps it; a Service leaves it
	// nil, since a long-running daemon would keep one entry per task it
	// ever ran, and it folds each checksum into TaskChecksumDigest alone.
	// It is complete once Run returns: the finisher pool fills it at
	// finish, when the finishers that ran the tasks out are joined, not per
	// completion; without a pool (one core) each entry lands as its task
	// completes. Excluded from JSON: the struct key has no JSON
	// representation and the map is in-process verification state.
	TaskChecksums map[cluster.TaskID]uint64 `json:"-"`
	// TaskChecksumDigest folds every completed task's checksum, with its
	// ID, into one word in both modes: a wrapping sum of one mixed term per
	// task, so it does not depend on the order tasks complete in (service
	// mode's follows the wall clock). Any one task's checksum moving always
	// moves it; several moving cancel out only by a 2⁻⁶⁴ chance.
	// In-process verification state, like the map.
	TaskChecksumDigest uint64 `json:"-"`

	// Metrics is the observability snapshot of the run, whether or not the
	// caller supplied a registry: latency histograms (yarn.dump.*,
	// yarn.restore.*, dfs.client.block.*), policy-decision counters, gauges,
	// and the only copy of what the DFS (dfs.client.*, dfs.namenode.*,
	// dfs.scrub.*), the checkpoint engine (checkpoint.*) and the fault
	// injector (faults.injected.<mode>) count.
	Metrics obs.Snapshot

	// SLO is the end-of-run snapshot of the registry's SLO view: waste
	// core-hours, per-band response-time percentiles, and the checkpoint
	// hit-rate, derived from the slo.* series in Metrics.
	SLO obs.SLOSnapshot
}
