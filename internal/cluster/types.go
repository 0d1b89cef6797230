package cluster

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Priority is a Google-trace-style scheduling priority in [0, 11]. Higher
// values preempt lower values under contention.
type Priority int

// Priority bands, following the taxonomy of Table 1 in the paper.
const (
	// MinPriority and MaxPriority bound the valid priority range.
	MinPriority Priority = 0
	MaxPriority Priority = 11
)

// Band groups raw priorities into the three classes the paper reports on.
type Band int

const (
	// BandFree covers priorities 0-1 ("free" / best-effort work).
	BandFree Band = iota
	// BandMiddle covers priorities 2-8.
	BandMiddle
	// BandProduction covers priorities 9-11.
	BandProduction
	numBands
)

// NumBands is the number of priority bands.
const NumBands = int(numBands)

// BandOf maps a raw priority to its band.
func BandOf(p Priority) Band {
	switch {
	case p <= 1:
		return BandFree
	case p <= 8:
		return BandMiddle
	default:
		return BandProduction
	}
}

func (b Band) String() string {
	switch b {
	case BandFree:
		return "low"
	case BandMiddle:
		return "medium"
	case BandProduction:
		return "high"
	default:
		return fmt.Sprintf("Band(%d)", int(b))
	}
}

// LatencyClass is the Google-trace scheduling-class field: 0 (most
// insensitive to latency) through 3 (most latency-sensitive).
type LatencyClass int

// NumLatencyClasses is the number of latency-sensitivity classes.
const NumLatencyClasses = 4

// JobID identifies a job within a trace or cluster run.
type JobID int64

// TaskID identifies a task as (job, index).
type TaskID struct {
	Job   JobID
	Index int32
}

// String renders the ID as "job/index". It runs for every task on the
// scheduler's goroutine (process name, journal field), so it formats into a
// stack buffer: 20 bytes of job, the slash, 11 of index.
func (t TaskID) String() string {
	var buf [32]byte
	b := strconv.AppendInt(buf[:0], int64(t.Job), 10)
	b = append(b, '/')
	return string(strconv.AppendInt(b, int64(t.Index), 10))
}

// TaskSpec describes a schedulable unit of work.
type TaskSpec struct {
	ID       TaskID
	Priority Priority
	Latency  LatencyClass
	// User mirrors the owning job's tenant.
	User string
	// Demand is the resource reservation requested from the scheduler.
	Demand Resources
	// MemFootprint is the bytes of state a checkpoint must persist. It can
	// be below Demand.MemBytes when the task does not touch its whole
	// reservation.
	MemFootprint int64
	// Duration is the compute time the task needs, exclusive of queueing
	// and preemption overheads.
	Duration time.Duration
	// Submit is the task submission instant, relative to trace start.
	Submit time.Duration
}

// JobSpec describes a job: a set of tasks sharing an identity and priority.
type JobSpec struct {
	ID       JobID
	Priority Priority
	Latency  LatencyClass
	// User identifies the submitting tenant; fair-share scheduling
	// balances dominant resource shares across users. Empty is treated as
	// a distinct anonymous user per job.
	User   string
	Submit time.Duration
	Tasks  []TaskSpec
}

// Band returns the job's priority band.
func (j *JobSpec) Band() Band { return BandOf(j.Priority) }

// TotalWork sums task durations; this is the job's core-seconds of useful
// compute at one core per task, and the time one slot would need for it.
// Durations are positive in a valid spec, so a sum that wrapped is negative:
// it saturates.
func (j *JobSpec) TotalWork() time.Duration {
	var d time.Duration
	for i := range j.Tasks {
		if d += j.Tasks[i].Duration; d < 0 {
			return math.MaxInt64
		}
	}
	return d
}

// NodeID identifies a machine.
type NodeID int32

// Validate checks internal consistency of a job spec.
func (j *JobSpec) Validate() error {
	if j.Priority < MinPriority || j.Priority > MaxPriority {
		return fmt.Errorf("job %d: priority %d out of range", j.ID, j.Priority)
	}
	if j.Latency < 0 || j.Latency >= NumLatencyClasses {
		return fmt.Errorf("job %d: latency class %d out of range", j.ID, j.Latency)
	}
	if len(j.Tasks) == 0 {
		return fmt.Errorf("job %d: no tasks", j.ID)
	}
	for i := range j.Tasks {
		t := &j.Tasks[i]
		if t.ID.Job != j.ID {
			return fmt.Errorf("job %d: task %d has job id %d", j.ID, i, t.ID.Job)
		}
		if t.Priority < MinPriority || t.Priority > MaxPriority {
			return fmt.Errorf("task %v: priority %d out of range", t.ID, t.Priority)
		}
		if t.User != j.User {
			return fmt.Errorf("task %v: user %q differs from job user %q", t.ID, t.User, j.User)
		}
		if t.Duration <= 0 {
			return fmt.Errorf("task %v: non-positive duration %v", t.ID, t.Duration)
		}
		if t.Demand.CPUMillis <= 0 || t.Demand.MemBytes <= 0 {
			return fmt.Errorf("task %v: non-positive demand %v", t.ID, t.Demand)
		}
		if t.MemFootprint < 0 || t.MemFootprint > t.Demand.MemBytes {
			return fmt.Errorf("task %v: footprint %d outside [0, demand]", t.ID, t.MemFootprint)
		}
		if t.Submit < j.Submit {
			return fmt.Errorf("task %v: submitted before its job", t.ID)
		}
	}
	return nil
}
