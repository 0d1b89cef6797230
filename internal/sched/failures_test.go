package sched

import (
	"math"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// failScenario mirrors the yarn acceptance workload: job 1 (priority 1)
// pins node 0 for six minutes, job 0 (priority 0) runs on node 1 where a
// high-priority arrival checkpoint-preempts it at t=180s, and then node 1
// dies at t=270s under the resumed task.
func failScenario() []cluster.JobSpec {
	mk := func(id cluster.JobID, prio cluster.Priority, submit, dur time.Duration) cluster.JobSpec {
		return cluster.JobSpec{
			ID: id, Priority: prio, Submit: submit,
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: id},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: cluster.GiB(1),
				Duration:     dur,
				Submit:       submit,
			}},
		}
	}
	return []cluster.JobSpec{
		mk(0, 0, 0, 4*time.Minute),
		mk(1, 1, 0, 6*time.Minute),
		mk(2, 10, 3*time.Minute, time.Minute),
	}
}

func failConfig(policy core.Policy) Config {
	cfg := DefaultConfig(policy, storage.NVM)
	cfg.Nodes = 2
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(8)}
	cfg.NodeFailures = []NodeFailure{{Node: 1, At: 270 * time.Second}}
	return cfg
}

// TestNodeFailureRestoresFromCheckpoint: the trace simulator's seeded
// outage destroys only attempt-local progress when the victim holds a
// checkpoint image, and strictly more when the control run killed it.
func TestNodeFailureRestoresFromCheckpoint(t *testing.T) {
	chk, err := Run(failConfig(core.PolicyCheckpoint), failScenario())
	if err != nil {
		t.Fatal(err)
	}
	kill, err := Run(failConfig(core.PolicyKill), failScenario())
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Result{"checkpoint": chk, "kill": kill} {
		if r.NodeFailures != 1 {
			t.Errorf("%s: node failures = %d, want 1", name, r.NodeFailures)
		}
		if r.TasksRescheduled != 1 {
			t.Errorf("%s: tasks rescheduled = %d, want 1", name, r.TasksRescheduled)
		}
		if r.TasksCompleted != 3 {
			t.Errorf("%s: completed %d of 3 tasks", name, r.TasksCompleted)
		}
	}
	if chk.FailureRestores != 1 || chk.FailureRestarts != 0 {
		t.Errorf("checkpoint run: restores=%d restarts=%d, want image recovery",
			chk.FailureRestores, chk.FailureRestarts)
	}
	if kill.FailureRestores != 0 || kill.FailureRestarts != 1 {
		t.Errorf("kill control: restores=%d restarts=%d, want restart-only recovery",
			kill.FailureRestores, kill.FailureRestarts)
	}
	if chk.FailureWasteHours <= 0 {
		t.Error("failure cost no work in the checkpoint run")
	}
	if chk.FailureWasteHours >= kill.FailureWasteHours {
		t.Errorf("work lost to failure: checkpoint %.6f >= kill control %.6f core-hours",
			chk.FailureWasteHours, kill.FailureWasteHours)
	}
	if chk.WastedCPUHours >= kill.WastedCPUHours {
		t.Errorf("total waste: checkpoint %.6f >= kill control %.6f core-hours",
			chk.WastedCPUHours, kill.WastedCPUHours)
	}
	if chk.FailureWasteHours > chk.WastedCPUHours {
		t.Errorf("failure waste %.6f exceeds total waste %.6f",
			chk.FailureWasteHours, chk.WastedCPUHours)
	}
}

// TestNodeFailureRecovery reboots the failed machine: displaced work
// waits out the outage (the surviving node is full) and completes on the
// recovered node.
func TestNodeFailureRecovery(t *testing.T) {
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Nodes = 2
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(2), MemBytes: cluster.GiB(8)}
	cfg.NodeFailures = []NodeFailure{{Node: 0, At: time.Minute, RecoverAfter: 2 * time.Minute}}
	var jobs []cluster.JobSpec
	for i := 0; i < 4; i++ {
		jobs = append(jobs, cluster.JobSpec{
			ID: cluster.JobID(i),
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: cluster.JobID(i)},
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: cluster.GiB(1),
				Duration:     5 * time.Minute,
			}},
		})
	}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeFailures != 1 || r.NodeRecoveries != 1 {
		t.Errorf("failures=%d recoveries=%d, want 1/1", r.NodeFailures, r.NodeRecoveries)
	}
	if r.TasksRescheduled != 2 {
		t.Errorf("tasks rescheduled = %d, want the 2 fenced off node 0", r.TasksRescheduled)
	}
	if r.FailureRestarts != 2 {
		t.Errorf("failure restarts = %d, want 2 (no checkpoints existed)", r.FailureRestarts)
	}
	if r.TasksCompleted != 4 {
		t.Errorf("completed %d of 4 tasks", r.TasksCompleted)
	}
	// Each fenced task had run for the minute before the outage.
	want := 2 * (1.0 / 60)
	if r.FailureWasteHours < want-1e-9 || r.FailureWasteHours > want+1e-9 {
		t.Errorf("failure waste = %.6f core-hours, want %.6f", r.FailureWasteHours, want)
	}
}

// TestNodeFailureDeterminism re-runs the outage scenario and demands
// identical books.
func TestNodeFailureDeterminism(t *testing.T) {
	a, err := Run(failConfig(core.PolicyCheckpoint), failScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(failConfig(core.PolicyCheckpoint), failScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.NodeFailures != b.NodeFailures ||
		a.TasksRescheduled != b.TasksRescheduled ||
		a.FailureWasteHours != b.FailureWasteHours ||
		a.WastedCPUHours != b.WastedCPUHours {
		t.Errorf("non-deterministic failure run: %+v vs %+v", a, b)
	}
}

// TestNodeFailureValidation exercises the new Config checks.
func TestNodeFailureValidation(t *testing.T) {
	bad := [][]NodeFailure{
		{{Node: 2, At: time.Minute}},
		{{Node: -1, At: time.Minute}},
		{{Node: 0, At: -time.Second}},
		{{Node: 0, At: time.Minute, RecoverAfter: -time.Second}},
	}
	for i, fs := range bad {
		cfg := DefaultConfig(core.PolicyKill, storage.SSD)
		cfg.Nodes = 2
		cfg.NodeFailures = fs
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad NodeFailures %d accepted", i)
		}
	}
}

// GIVEN a node whose tasks were placed in an order other than task-ID
// order (the queue places by priority first),
// WHEN the node fails,
// THEN its tasks are fenced in ascending task-ID order — the order that
// fixes their order in the pending queue and hence everything after it.
func TestFailNodeFencesInTaskIDOrder(t *testing.T) {
	job := func(id cluster.JobID, prio cluster.Priority, tasks int) cluster.JobSpec {
		j := cluster.JobSpec{ID: id, Priority: prio}
		for i := 0; i < tasks; i++ {
			j.Tasks = append(j.Tasks, cluster.TaskSpec{
				ID:           cluster.TaskID{Job: id, Index: int32(i)},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: cluster.GiB(1),
				Duration:     10 * time.Minute,
			})
		}
		return j
	}
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Nodes = 1
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(8), MemBytes: cluster.GiB(32)}
	cfg.NodeFailures = []NodeFailure{{Node: 0, At: time.Minute, RecoverAfter: time.Minute}}
	var placed, fenced []cluster.TaskID
	cfg.Observer = observerFunc(func(ev obs.Event) {
		switch {
		case ev.Kind == obs.EvPlace && ev.At == 0:
			placed = append(placed, ev.Task)
		case ev.Kind == obs.EvTaskRescheduled:
			fenced = append(fenced, ev.Task)
		}
	})
	// Placement order at t=0 is job 5, then 9, then 2.
	if _, err := Run(cfg, []cluster.JobSpec{job(2, 0, 3), job(5, 10, 2), job(9, 5, 2)}); err != nil {
		t.Fatal(err)
	}
	if len(fenced) != 7 || len(placed) != 7 {
		t.Fatalf("placed %v, fenced %v; want all 7 tasks in both", placed, fenced)
	}
	if !taskIDLess(placed[len(placed)-1], placed[0]) {
		t.Fatalf("placement order %v is already ID order; the scenario proves nothing", placed)
	}
	for i := 1; i < len(fenced); i++ {
		if !taskIDLess(fenced[i-1], fenced[i]) {
			t.Fatalf("fence order %v is not ascending task-ID order", fenced)
		}
	}
}

// GIVEN a node that fails at 2^62 with a recovery 2^62 later, while a task
// on another node runs to almost the end of the clock,
// WHEN the failure arms the recovery,
// THEN the recovery lands on the last instant of the clock instead of
// wrapping into the past and panicking, and it still happens.
func TestRecoveryArmSaturatesAtEndOfClock(t *testing.T) {
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Nodes = 2
	cfg.NodeFailures = []NodeFailure{{Node: 1, At: 1 << 62, RecoverAfter: 1 << 62}}
	r, err := Run(cfg, endOfClockJob())
	if err != nil {
		t.Fatal(err)
	}
	if r.TasksCompleted != 1 || r.NodeFailures != 1 || r.NodeRecoveries != 1 {
		t.Fatalf("completed %d tasks, %d failures, %d recoveries; want 1 of each", r.TasksCompleted, r.NodeFailures, r.NodeRecoveries)
	}
	if r.Makespan != time.Duration(math.MaxInt64) {
		t.Fatalf("makespan %v, want the end of the clock", r.Makespan)
	}
}
