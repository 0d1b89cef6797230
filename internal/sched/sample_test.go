package sched

import (
	"math"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// endOfClockJob is one task that runs until ten nanoseconds before the last
// instant of the virtual clock.
func endOfClockJob() []cluster.JobSpec {
	return []cluster.JobSpec{{Tasks: []cluster.TaskSpec{{
		Demand:   cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(1)},
		Duration: math.MaxInt64 - 10,
	}}}}
}

// GIVEN a sampler period of 2^62 and a task that runs to almost the end of
// the clock,
// WHEN the first sample, at 2^62, re-arms the sampler,
// THEN the next sample lands on the last instant of the clock instead of
// wrapping into the past and panicking: the task completes, and the run
// ends with that second sample.
func TestSamplerRearmSaturatesAtEndOfClock(t *testing.T) {
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Nodes = 1
	cfg.SampleEvery = 1 << 62
	var at []sim.Time
	cfg.OnSample = func(s Sample) { at = append(at, s.At) }
	r, err := Run(cfg, endOfClockJob())
	if err != nil {
		t.Fatal(err)
	}
	if r.TasksCompleted != 1 || r.Makespan != time.Duration(math.MaxInt64) {
		t.Fatalf("completed %d tasks, makespan %v; want 1 and the end of the clock", r.TasksCompleted, r.Makespan)
	}
	if want := []sim.Time{1 << 62, math.MaxInt64}; len(at) != 2 || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("sampled at %v, want %v", at, want)
	}
}
