package yarn

import (
	"encoding/json"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
)

// tinyCluster is a 1-node, 1-slot framework so contention is guaranteed.
func tinyCluster(policy core.Policy) Config {
	cfg := DefaultConfig(policy, storage.SSD)
	cfg.Nodes = 1
	cfg.ContainersPerNode = 1
	return cfg
}

// smallWorkload builds a handful of single-task jobs with mixed
// priorities.
func smallWorkload() []cluster.JobSpec {
	return workload.SensitivityScenario(time.Minute, 30*time.Second, cluster.GiB(5))
}

// mixedWorkload guarantees contention on a 6-slot cluster: six long
// low-priority tasks saturate it at t=0, then two high-priority jobs
// arrive mid-run and must preempt.
func mixedWorkload(t *testing.T) []cluster.JobSpec {
	t.Helper()
	var jobs []cluster.JobSpec
	mk := func(id cluster.JobID, prio cluster.Priority, submit time.Duration, tasks int, dur time.Duration) {
		j := cluster.JobSpec{ID: id, Priority: prio, Submit: submit}
		for i := 0; i < tasks; i++ {
			j.Tasks = append(j.Tasks, cluster.TaskSpec{
				ID:           cluster.TaskID{Job: id, Index: int32(i)},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: int64(1.8 * float64(cluster.GiB(1))),
				Duration:     dur,
				Submit:       submit,
			})
		}
		jobs = append(jobs, j)
	}
	mk(0, 0, 0, 3, 3*time.Minute)
	mk(1, 1, 0, 3, 2*time.Minute)
	mk(2, 0, 10*time.Second, 2, 90*time.Second)
	mk(3, 10, 45*time.Second, 2, time.Minute)
	mk(4, 9, 70*time.Second, 2, time.Minute)
	return jobs
}

func countTasks(jobs []cluster.JobSpec) int {
	n := 0
	for i := range jobs {
		n += len(jobs[i].Tasks)
	}
	return n
}

// jobsCompleted is how many jobs the run finished: one response-time
// observation each in the SLO's all-bands histogram.
func jobsCompleted(r *Result) int { return int(r.SLO.Response["all"].Count) }

func TestWaitPolicyFramework(t *testing.T) {
	r, err := Run(tinyCluster(core.PolicyWait), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions != 0 || r.Kills != 0 || r.Checkpoints != 0 {
		t.Errorf("wait policy preempted: %+v", r)
	}
	if got := r.MeanResponse(cluster.BandFree); got != 60 {
		t.Errorf("low response = %v, want 60", got)
	}
	if got := r.MeanResponse(cluster.BandProduction); got != 90 {
		t.Errorf("high response = %v, want 90", got)
	}
	if r.TasksCompleted != 2 || jobsCompleted(r) != 2 {
		t.Errorf("completion counts: %+v", r)
	}
}

func TestKillPolicyFramework(t *testing.T) {
	r, err := Run(tinyCluster(core.PolicyKill), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 1 || r.Checkpoints != 0 {
		t.Errorf("kill counts: kills=%d checkpoints=%d", r.Kills, r.Checkpoints)
	}
	if got := r.MeanResponse(cluster.BandProduction); got != 60 {
		t.Errorf("high response = %v, want 60", got)
	}
	if got := r.MeanResponse(cluster.BandFree); got != 150 {
		t.Errorf("low response = %v, want 150 (restart from scratch)", got)
	}
}

func TestCheckpointPolicyFramework(t *testing.T) {
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9
	r, err := Run(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 1 || r.Kills != 0 || r.Restores != 1 {
		t.Errorf("counts: %+v", r)
	}
	dump := 5 * 1.0737
	if got := r.MeanResponse(cluster.BandProduction); got < 60+dump-1.5 || got > 60+dump+1.5 {
		t.Errorf("high response = %v, want ~%v", got, 60+dump)
	}
	// The checkpointed job must beat the kill policy's 150 s.
	if got := r.MeanResponse(cluster.BandFree); got > 140 {
		t.Errorf("low response = %v, want well below kill's 150", got)
	}
	if r.PeakImageBytes != cluster.GiB(5) {
		t.Errorf("peak image bytes = %d, want 5 GiB logical", r.PeakImageBytes)
	}
	if r.DFSStoredBytes <= 0 {
		t.Error("no real bytes ever resident in the DFS")
	}
}

// The headline end-to-end property: whatever the policy and however often
// tasks are preempted, every task's final computed state is bit-identical
// to the undisturbed execution.
func TestTransparencyAcrossPolicies(t *testing.T) {
	jobs := mixedWorkload(t)
	cfg := DefaultConfig(core.PolicyWait, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 3
	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.TaskChecksums) != countTasks(jobs) {
		t.Fatalf("reference produced %d checksums for %d tasks", len(ref.TaskChecksums), countTasks(jobs))
	}
	for _, policy := range []core.Policy{core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive} {
		cfg := DefaultConfig(policy, storage.NVM)
		cfg.Nodes = 2
		cfg.ContainersPerNode = 3
		r, err := Run(cfg, jobs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if policy != core.PolicyKill && r.Checkpoints == 0 {
			t.Errorf("%v: workload produced no checkpoints; weak test", policy)
		}
		for id, want := range ref.TaskChecksums {
			if got, ok := r.TaskChecksums[id]; !ok || got != want {
				t.Errorf("%v: task %v checksum %x != reference %x", policy, id, got, want)
			}
		}
	}
}

func TestIncrementalCheckpointsInFramework(t *testing.T) {
	// One low job repeatedly preempted by two high arrivals.
	low := cluster.JobSpec{
		ID: 0, Priority: 0,
		Tasks: []cluster.TaskSpec{{
			ID:           cluster.TaskID{Job: 0},
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: cluster.GiB(1),
			Duration:     5 * time.Minute,
		}},
	}
	mkHigh := func(id cluster.JobID, submit time.Duration) cluster.JobSpec {
		return cluster.JobSpec{
			ID: id, Priority: 10, Submit: submit,
			Tasks: []cluster.TaskSpec{{
				ID:       cluster.TaskID{Job: id},
				Priority: 10,
				Demand:   cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				Duration: 30 * time.Second,
				Submit:   submit,
			}},
		}
	}
	jobs := []cluster.JobSpec{low, mkHigh(1, time.Minute), mkHigh(2, 3*time.Minute)}
	r, err := Run(tinyCluster(core.PolicyCheckpoint), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 2 || r.IncrementalCheckpoints != 1 {
		t.Errorf("checkpoints=%d incremental=%d, want 2/1", r.Checkpoints, r.IncrementalCheckpoints)
	}
	if r.Restores != 2 {
		t.Errorf("restores = %d, want 2", r.Restores)
	}
	// After everything completes, no image bytes may linger.
	if r.TasksCompleted != 3 {
		t.Errorf("completed %d tasks", r.TasksCompleted)
	}
}

func TestAdaptiveKillsYoungTasksInFramework(t *testing.T) {
	cfg := tinyCluster(core.PolicyAdaptive)
	cfg.CustomBandwidth = 50e6 // 5 GiB dump ~107 s >> 30 s progress
	r, err := Run(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 1 || r.Checkpoints != 0 {
		t.Errorf("slow storage: kills=%d checkpoints=%d", r.Kills, r.Checkpoints)
	}
	cfg.CustomBandwidth = 5e9
	r, err = Run(cfg, smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 1 || r.Kills != 0 {
		t.Errorf("fast storage: kills=%d checkpoints=%d", r.Kills, r.Checkpoints)
	}
}

func TestFrameworkDeterminism(t *testing.T) {
	jobs := mixedWorkload(t)
	cfg := DefaultConfig(core.PolicyAdaptive, storage.HDD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 4
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Preemptions != b.Preemptions ||
		a.WastedCPUHours != b.WastedCPUHours || a.EnergyKWh != b.EnergyKWh {
		t.Errorf("non-deterministic framework run")
	}
}

func TestKillWastesMoreThanCheckpointInFramework(t *testing.T) {
	jobs := mixedWorkload(t)
	run := func(policy core.Policy, kind storage.Kind) *Result {
		cfg := DefaultConfig(policy, kind)
		cfg.Nodes = 2
		cfg.ContainersPerNode = 3
		r, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	kill := run(core.PolicyKill, storage.SSD)
	if kill.Preemptions == 0 {
		t.Fatal("no contention in scenario")
	}
	chk := run(core.PolicyCheckpoint, storage.NVM)
	if kill.WastedCPUHours <= chk.WastedCPUHours {
		t.Errorf("kill waste %.3f <= checkpoint-NVM waste %.3f", kill.WastedCPUHours, chk.WastedCPUHours)
	}
}

func TestConfigValidationFramework(t *testing.T) {
	jobs := smallWorkload()
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(core.PolicyKill, storage.SSD); c.Nodes = 0; return c }(),
		func() Config { c := DefaultConfig(core.PolicyKill, storage.SSD); c.Replication = 0; return c }(),
		func() Config { c := DefaultConfig(core.PolicyKill, storage.SSD); c.KMeansK = 0; return c }(),
		func() Config { c := DefaultConfig(0, storage.SSD); return c }(),
		func() Config { c := DefaultConfig(core.PolicyKill, storage.SSD); c.CustomBandwidth = -1; return c }(),
		// What construction cannot build is an error, not a panic: no
		// preset for the kind, and NVRAM, whose remap-on-local-resume rule
		// only the simulator implements.
		DefaultConfig(core.PolicyKill, 0),
		DefaultConfig(core.PolicyKill, storage.Custom),
		DefaultConfig(core.PolicyKill, storage.NVRAM),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if svc, err := NewService(cfg, nil, 1, nil); err == nil {
			svc.Abort()
			t.Errorf("bad config %d accepted by NewService", i)
		}
	}
	// A custom bandwidth stands in for the kind, whatever it says.
	custom := tinyCluster(core.PolicyCheckpoint)
	custom.StorageKind, custom.CustomBandwidth = 0, 2e9
	if r, err := Run(custom, smallWorkload()); err != nil {
		t.Errorf("custom-bandwidth run: %v", err)
	} else if r.Storage != "2.0GB/s" {
		t.Errorf("custom-bandwidth run labelled %q", r.Storage)
	}
	// Invalid job must be rejected.
	badJob := smallWorkload()
	badJob[0].Tasks[0].Duration = 0
	if _, err := Run(tinyCluster(core.PolicyKill), badJob); err == nil {
		t.Error("invalid job accepted")
	}
}

func TestRemoteRestoreInFramework(t *testing.T) {
	// Low task checkpoints on node 0; node 0 then stays saturated with
	// high work while node 1 frees up -> the restore must go remote and
	// still produce the right result.
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
	jobs := []cluster.JobSpec{
		mk(0, 0, 0, 2*time.Minute),                // low on node 0
		mk(1, 0, 0, 3*time.Minute),                // low on node 1
		mk(2, 10, 30*time.Second, 10*time.Minute), // high, preempts job 0, occupies node 0 long
	}
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.NVM)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 1
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints == 0 || r.Restores == 0 {
		t.Fatalf("no checkpoint/restore: %+v", r)
	}
	if r.RemoteRestores == 0 {
		t.Error("restore did not go remote despite home node saturation")
	}
	if r.TasksCompleted != 3 {
		t.Errorf("completed %d of 3", r.TasksCompleted)
	}
}

// TestResultJSONKeysStayTopLevel: Result embeds core.Outcome, and its
// JSON form — clusterd's final report; CI's churn soak reads
// result.NodeFailures — must keep every key it had when the shared
// fields were declared inline, at the top level.
func TestResultJSONKeysStayTopLevel(t *testing.T) {
	r, err := Run(tinyCluster(core.PolicyCheckpoint), smallWorkload())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"Checkpoints", "Compactions", "DFSStoredBytes", "DumpFailures", "EnergyKWh",
		"FailureRestarts", "FailureRestores", "FailureWasteHours", "FallbackKills",
		"FinalScrubCorrupt", "IOBusyHours", "IncrementalCheckpoints", "JobResponseAllSec", "JobResponseSec",
		"Kills", "Makespan", "Metrics", "NodeFailures", "NodeRecoveries", "OverheadCPUHours",
		"PeakImageBytes", "Policy", "PreCopies", "Preemptions",
		"RemoteRestores", "RestoreFailures", "RestoreFallbacks", "RestoreRestarts",
		"Restores", "SLO", "Storage", "TasksCompleted", "TasksRescheduled", "UsefulCPUHours", "WastedCPUHours",
	} {
		if _, ok := got[key]; !ok {
			t.Errorf("Result JSON lost top-level key %q", key)
		}
	}
	for _, key := range []string{"Outcome", "TaskChecksums"} {
		if _, ok := got[key]; ok {
			t.Errorf("Result JSON grew key %q", key)
		}
	}
	if string(got["Checkpoints"]) != "1" || string(got["Nodes"]) != "1" {
		t.Errorf("Checkpoints = %s, Nodes = %s; want 1, 1", got["Checkpoints"], got["Nodes"])
	}
}
