// Package core implements the paper's primary contribution: adaptive
// checkpoint-based preemption for cluster schedulers.
//
// It provides, exactly as Section 4 defines them:
//
//   - the checkpoint cost model
//     (overhead = size/bw_write + size/bw_read + queue_time_dump);
//   - Algorithm 1, adaptive preemption: checkpoint a victim only when its
//     unsaved progress exceeds the estimated overhead, else kill it, and
//     use incremental dumps whenever a previous checkpoint exists;
//   - Algorithm 2, adaptive resumption: restore locally or remotely
//     depending on which estimated overhead is lower;
//   - cost-aware victim selection: among preemptable tasks, evict those
//     with the lowest estimated checkpoint cost first.
//
// Both the trace-driven simulator (internal/sched) and the mini-YARN
// framework (internal/yarn) consume these functions, so the policy under
// evaluation is one implementation, not two.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// Policy enumerates the preemption policies the paper compares.
type Policy int

const (
	// PolicyWait never preempts: arriving work waits for running tasks.
	PolicyWait Policy = iota + 1
	// PolicyKill is the baseline used by production schedulers: victims
	// are killed and later restarted from scratch.
	PolicyKill
	// PolicyCheckpoint always checkpoints victims (the "basic"
	// checkpoint-based preemption of Section 3).
	PolicyCheckpoint
	// PolicyAdaptive applies Algorithm 1/2 (Section 4).
	PolicyAdaptive
)

func (p Policy) String() string {
	switch p {
	case PolicyWait:
		return "wait"
	case PolicyKill:
		return "kill"
	case PolicyCheckpoint:
		return "checkpoint"
	case PolicyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a CLI string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "wait":
		return PolicyWait, nil
	case "kill":
		return PolicyKill, nil
	case "checkpoint", "basic":
		return PolicyCheckpoint, nil
	case "adaptive":
		return PolicyAdaptive, nil
	default:
		return 0, fmt.Errorf("core: unknown policy %q (want wait|kill|checkpoint|adaptive)", s)
	}
}

// Candidate describes one running task considered for preemption.
type Candidate struct {
	Task     cluster.TaskID
	Priority cluster.Priority
	// Demand is the resource reservation that preempting this task frees.
	Demand cluster.Resources
	// UnsavedProgress is the useful compute a kill would lose: time run
	// since the task started or since its last checkpoint was taken.
	UnsavedProgress time.Duration
	// FootprintBytes is the task's full (logical) memory footprint — the
	// amount a full dump writes and a restore reads.
	FootprintBytes int64
	// DirtyBytes is the logical size of the soft-dirty region; it is what
	// an incremental dump writes. Ignored unless HasCheckpoint.
	DirtyBytes int64
	// HasCheckpoint records whether a previous image exists, enabling an
	// incremental dump.
	HasCheckpoint bool
}

// DumpBytes returns the bytes a checkpoint of this candidate writes: the
// dirty region if an incremental dump is possible, the full footprint
// otherwise.
func (c Candidate) DumpBytes() int64 {
	if c.HasCheckpoint {
		return c.DirtyBytes
	}
	return c.FootprintBytes
}

// CheckpointOverhead is the cost model of Algorithm 1:
//
//	overhead = dump_size/bw_write + restore_size/bw_read + queue_time_dump
//
// The dump writes only the (possibly incremental) dump bytes, while the
// eventual restore must read the full footprint; the queue term is how
// long the node's checkpoint queue delays the dump (Section 5.2.2 runs
// checkpoints sequentially per node).
func CheckpointOverhead(c Candidate, dev *storage.Device, now sim.Time) time.Duration {
	return dev.WriteTime(c.DumpBytes()) + dev.ReadTime(c.FootprintBytes) + dev.QueueDelay(now)
}

// PreemptAction is the outcome of Algorithm 1 for one victim.
type PreemptAction int

const (
	// ActionKill destroys the task; it will later restart from scratch
	// (or from its previous checkpoint if one exists).
	ActionKill PreemptAction = iota + 1
	// ActionCheckpointFull suspends the task with a full dump.
	ActionCheckpointFull
	// ActionCheckpointIncremental suspends the task dumping only dirty
	// pages against its previous image.
	ActionCheckpointIncremental
)

func (a PreemptAction) String() string {
	switch a {
	case ActionKill:
		return "kill"
	case ActionCheckpointFull:
		return "checkpoint-full"
	case ActionCheckpointIncremental:
		return "checkpoint-incremental"
	default:
		return fmt.Sprintf("PreemptAction(%d)", int(a))
	}
}

// IsCheckpoint reports whether the action saves task state.
func (a PreemptAction) IsCheckpoint() bool {
	return a == ActionCheckpointFull || a == ActionCheckpointIncremental
}

// DecidePreemption implements Algorithm 1 for a single victim under the
// given policy. dev is the storage device the checkpoint would be written
// to on the victim's node, at virtual time now.
func DecidePreemption(policy Policy, c Candidate, dev *storage.Device, now sim.Time) PreemptAction {
	checkpointAction := ActionCheckpointFull
	if c.HasCheckpoint {
		checkpointAction = ActionCheckpointIncremental
	}
	switch policy {
	case PolicyKill, PolicyWait:
		return ActionKill
	case PolicyCheckpoint:
		return checkpointAction
	case PolicyAdaptive:
		if c.UnsavedProgress > CheckpointOverhead(c, dev, now) {
			return checkpointAction
		}
		return ActionKill
	default:
		panic(fmt.Sprintf("core: DecidePreemption with invalid policy %v", policy))
	}
}

// SelectVictims implements cost-aware eviction (Section 5.2.2): each
// candidate is scored once with CheckpointOverhead on the device devFor
// maps it to — which is how per-node checkpoint queue depth influences
// victim choice — then the candidates are taken by priority (lowest
// first, so high-priority work is preempted last) and, within a priority,
// by cost (cheapest first), ties in input order, until their combined
// demand covers need. The victims come back in eviction order. The
// boolean result is false when even preempting every candidate would not
// free enough, in which case no victims are returned; a need that is
// already covered returns no victims and true.
func SelectVictims(cands []Candidate, need cluster.Resources, now sim.Time, devFor func(Candidate) *storage.Device) ([]Candidate, bool) {
	costs := make([]time.Duration, len(cands))
	order := make([]int, len(cands))
	for i, c := range cands {
		costs[i] = CheckpointOverhead(c, devFor(c), now)
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if pa, pb := cands[a].Priority, cands[b].Priority; pa != pb {
			return cmp.Compare(pa, pb)
		}
		return cmp.Compare(costs[a], costs[b])
	})
	var (
		freed   cluster.Resources
		victims []Candidate
	)
	for _, i := range order {
		if need.Fits(freed) {
			break
		}
		victims = append(victims, cands[i])
		freed = freed.Add(cands[i].Demand)
	}
	if !need.Fits(freed) {
		return nil, false
	}
	return victims, true
}

// RestorePlacement is the outcome of Algorithm 2.
type RestorePlacement int

const (
	// RestoreLocal resumes the task on the node that checkpointed it.
	RestoreLocal RestorePlacement = iota + 1
	// RestoreRemote resumes the task on a different node, paying a
	// network transfer for the image.
	RestoreRemote
)

func (r RestorePlacement) String() string {
	if r == RestoreLocal {
		return "local"
	}
	return "remote"
}

// RestoreCosts carries the inputs of Algorithm 2.
type RestoreCosts struct {
	// FootprintBytes is the full image size a restore reads.
	FootprintBytes int64
	// LocalDev is the device on the checkpoint's home node; RemoteDev the
	// device on the candidate remote node.
	LocalDev  *storage.Device
	RemoteDev *storage.Device
	// NetBandwidth is the bytes/second available for shipping the image
	// to the remote node.
	NetBandwidth float64
}

// LocalOverhead is Algorithm 2's overhead_local = size/bw_read + queue.
func (rc RestoreCosts) LocalOverhead(now sim.Time) time.Duration {
	return rc.LocalDev.ReadTime(rc.FootprintBytes) + rc.LocalDev.QueueDelay(now)
}

// RemoteOverhead is Algorithm 2's overhead_remote = size/bw_net +
// size/bw_read + queue.
func (rc RestoreCosts) RemoteOverhead(now sim.Time) time.Duration {
	net := time.Duration(float64(rc.FootprintBytes) / rc.NetBandwidth * float64(time.Second))
	return net + rc.RemoteDev.ReadTime(rc.FootprintBytes) + rc.RemoteDev.QueueDelay(now)
}

// DecideRestore implements Algorithm 2: local when its estimated overhead
// does not exceed the remote overhead, remote otherwise.
func DecideRestore(rc RestoreCosts, now sim.Time) RestorePlacement {
	if rc.LocalOverhead(now) <= rc.RemoteOverhead(now) {
		return RestoreLocal
	}
	return RestoreRemote
}

// DefaultNetBandwidth is the modelled cluster network bandwidth
// (10 GbE ≈ 1.1 GB/s effective), used when shipping remote images.
const DefaultNetBandwidth = 1.1e9
