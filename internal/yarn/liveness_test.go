package yarn

import (
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/storage"
)

// crashScenario is the acceptance workload. Placement runs in priority
// order, so job 1 (priority 1) takes node 0 and job 0 (priority 0) lands
// on node 1, where a high arrival checkpoint-preempts it at t=180s; it
// resumes with banked progress, and then node 1 crashes under it. Job 1
// pins node 0 until t=360s, so the displaced task must wait for it,
// making the recovery path observable.
func crashScenario() []cluster.JobSpec {
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
		mk(0, 0, 0, 4*time.Minute),              // the victim: node 1
		mk(1, 1, 0, 6*time.Minute),              // pins node 0
		mk(2, 10, 3*time.Minute, 1*time.Minute), // preempts job 0 at t=180s
	}
}

func crashConfig(policy core.Policy) Config {
	cfg := DefaultConfig(policy, storage.NVM)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 1
	cfg.Faults = &faults.Plan{
		Seed:        7,
		NMCrashAt:   270 * time.Second,
		NMCrashNode: 1,
	}
	return cfg
}

// TestNMCrashRecoversFromCheckpoint is the acceptance scenario: a seeded
// NM crash takes out a task that had banked progress in a checkpoint
// image, and the recovery restores from that image instead of restarting
// — strictly less work lost to the failure than the kill-restart control
// run over the same workload and the same crash.
func TestNMCrashRecoversFromCheckpoint(t *testing.T) {
	chk, err := Run(crashConfig(core.PolicyCheckpoint), crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	kill, err := Run(crashConfig(core.PolicyKill), crashScenario())
	if err != nil {
		t.Fatal(err)
	}

	if chk.NodeFailures != 1 {
		t.Fatalf("checkpoint run declared %d node failures, want 1", chk.NodeFailures)
	}
	if chk.TasksRescheduled == 0 {
		t.Fatal("crash rescheduled no tasks")
	}
	if chk.FailureRestores == 0 {
		t.Error("no task recovered from a checkpoint image after the crash")
	}
	if chk.FailureRestarts != 0 {
		t.Errorf("%d failure restarts in the checkpoint run, want image recovery", chk.FailureRestarts)
	}
	if kill.FailureRestores != 0 || kill.FailureRestarts == 0 {
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

	// Transparency survives the node failure: every task's final state is
	// bit-identical to an undisturbed run.
	refCfg := DefaultConfig(core.PolicyWait, storage.NVM)
	refCfg.Nodes = 2
	refCfg.ContainersPerNode = 1
	ref, err := Run(refCfg, crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range ref.TaskChecksums {
		if got, ok := chk.TaskChecksums[id]; !ok || got != want {
			t.Errorf("task %v checksum %x != reference %x after crash recovery", id, got, want)
		}
	}
}

// TestNMCrashDeterminism re-runs the crash scenario and demands identical
// books — liveness events ride the same virtual clock as everything else.
func TestNMCrashDeterminism(t *testing.T) {
	a, err := Run(crashConfig(core.PolicyCheckpoint), crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(crashConfig(core.PolicyCheckpoint), crashScenario())
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.NodeFailures != b.NodeFailures ||
		a.TasksRescheduled != b.TasksRescheduled ||
		a.FailureWasteHours != b.FailureWasteHours ||
		a.WastedCPUHours != b.WastedCPUHours {
		t.Errorf("non-deterministic crash run: %+v vs %+v", a, b)
	}
}

// TestNMPartitionHealAndRecovery partitions a node from the RM long
// enough to be declared dead, fencing its containers, then lets the
// partition heal: the node's next delivered heartbeat re-registers it and
// the displaced work reschedules onto it.
func TestNMPartitionHealAndRecovery(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 2
	cfg.Faults = &faults.Plan{
		Seed:            3,
		NMPartitionAt:   60 * time.Second,
		NMPartitionNode: 0,
		NMPartitionFor:  2 * time.Minute,
	}
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
	if r.NodeFailures != 1 {
		t.Errorf("node failures = %d, want 1 (partition declared dead)", r.NodeFailures)
	}
	if r.NodeRecoveries != 1 {
		t.Errorf("node recoveries = %d, want 1 (partition healed)", r.NodeRecoveries)
	}
	if r.TasksRescheduled != 2 {
		t.Errorf("tasks rescheduled = %d, want the 2 fenced off node 0", r.TasksRescheduled)
	}
	if r.FailureWasteHours <= 0 {
		t.Error("partition fencing charged no failure waste")
	}
	if r.TasksCompleted != 4 {
		t.Errorf("completed %d of 4 tasks", r.TasksCompleted)
	}
	if got := r.Metrics.Counter("faults.injected." + faults.ModeNMPartitionDrops); got == 0 {
		t.Error("injector counted no partition-dropped heartbeats")
	}
}

// TestHeartbeatDropsDoNotLoseWork drives a lossy RM↔NM control plane:
// random heartbeat drops may cause spurious dead declarations, but every
// declaration is followed by recovery or rescheduling and all work
// completes with settled books.
func TestHeartbeatDropsDoNotLoseWork(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 2
	cfg.NMLivenessTimeout = 25 * time.Second
	cfg.Faults = &faults.Plan{Seed: 11, HeartbeatDropRate: 0.5}
	var jobs []cluster.JobSpec
	for i := 0; i < 4; i++ {
		jobs = append(jobs, cluster.JobSpec{
			ID: cluster.JobID(i),
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: cluster.JobID(i)},
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: cluster.GiB(1),
				Duration:     4 * time.Minute,
			}},
		})
	}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.TasksCompleted != 4 {
		t.Errorf("completed %d of 4 tasks under heartbeat loss", r.TasksCompleted)
	}
	if got := r.Metrics.Counter("faults.injected." + faults.ModeHeartbeatDrops); got == 0 {
		t.Error("injector counted no dropped heartbeats at 50% drop rate")
	}
	if r.NodeFailures > 0 && r.NodeRecoveries == 0 && r.TasksRescheduled == 0 {
		t.Errorf("dead declarations (%d) without recoveries or rescheduling", r.NodeFailures)
	}
}

// TestServiceSurvivesNodeLoss runs the daemon-facing path: a live Service
// (real TCP DFS) loses a compute node mid-job and must still drain with
// settled books — every admitted job completes exactly once.
func TestServiceSurvivesNodeLoss(t *testing.T) {
	cfg := serviceConfig(core.PolicyCheckpoint)
	cfg.Faults = &faults.Plan{
		Seed:        5,
		NMCrashAt:   30 * time.Second,
		NMCrashNode: 1,
	}
	const jobs = 4
	done := make(map[cluster.JobID]int)
	s, err := startService(cfg, func(d JobDone) { done[d.ID]++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		id := cluster.JobID(i)
		if err := s.submit(serviceJob(id, cluster.Priority(i)%11, 2, 2*time.Minute)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if len(done) != jobs {
		t.Fatalf("completions for %d jobs, want %d", len(done), jobs)
	}
	for id, n := range done {
		if n != 1 {
			t.Errorf("job %d completed %d times", id, n)
		}
	}
	if res.NodeFailures != 1 {
		t.Errorf("node failures = %d, want 1", res.NodeFailures)
	}
	if jobsCompleted(res) != jobs {
		t.Errorf("jobs completed = %d, want %d", jobsCompleted(res), jobs)
	}
}

// TestLivenessConfigValidation exercises the new Config/Plan checks.
func TestLivenessConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(core.PolicyKill, storage.SSD)
		cfg.Nodes = 2
		return cfg
	}
	bad := []Config{
		func() Config { c := base(); c.NMLivenessTimeout = 5 * time.Second; return c }(), // shorter than heartbeat
		func() Config {
			c := base()
			c.Faults = &faults.Plan{NMCrashAt: time.Minute, NMCrashNode: 2}
			return c
		}(),
		func() Config {
			c := base()
			c.Faults = &faults.Plan{NMPartitionAt: time.Minute, NMPartitionNode: 9}
			return c
		}(),
		func() Config { c := base(); c.Faults = &faults.Plan{HeartbeatDropRate: 1.5}; return c }(),
		func() Config { c := base(); c.Faults = &faults.Plan{NMCrashAt: -time.Second}; return c }(),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := base()
	good.Faults = &faults.Plan{NMCrashAt: time.Minute, NMCrashNode: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid NM-fault config rejected: %v", err)
	}
}
