package sched

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

// oneCoreConfig is a single-node, single-core cluster so scenarios are
// hand-checkable.
func oneCoreConfig(policy core.Policy, kind storage.Kind) Config {
	cfg := DefaultConfig(policy, kind)
	cfg.Nodes = 1
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(8)}
	return cfg
}

// twoJobScenario reproduces the paper's sensitivity setup (Section 3.3.3):
// a low-priority job runs for 30 s, then a high-priority job of the same
// size arrives and contends for the single core. Both need 60 s of
// compute and have a 5 GB footprint.
func twoJobScenario() []cluster.JobSpec {
	mk := func(id cluster.JobID, prio cluster.Priority, submit time.Duration) cluster.JobSpec {
		return cluster.JobSpec{
			ID:       id,
			Priority: prio,
			Submit:   submit,
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: id},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(6)},
				MemFootprint: cluster.GiB(5),
				Duration:     time.Minute,
				Submit:       submit,
			}},
		}
	}
	return []cluster.JobSpec{
		mk(0, 0, 0),
		mk(1, 10, 30*time.Second),
	}
}

func respOf(t *testing.T, r *Result, band cluster.Band) float64 {
	t.Helper()
	d := r.JobResponseSec[band]
	if d.N != 1 {
		t.Fatalf("band %v has %d samples", band, d.N)
	}
	return d.Mean()
}

func TestWaitPolicy(t *testing.T) {
	r, err := Run(oneCoreConfig(core.PolicyWait, storage.SSD), twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	// Low job: 0..60 s. High job: submitted at 30 s, waits 30 s, runs
	// 60 s -> response 90 s.
	if got := respOf(t, r, cluster.BandFree); got != 60 {
		t.Errorf("low response = %v, want 60", got)
	}
	if got := respOf(t, r, cluster.BandProduction); got != 90 {
		t.Errorf("high response = %v, want 90", got)
	}
	if r.Preemptions != 0 || r.Kills != 0 || r.Checkpoints != 0 {
		t.Errorf("wait policy preempted: %+v", r)
	}
	if r.WastedCPUHours != 0 {
		t.Errorf("wait policy wasted %v CPU-hours", r.WastedCPUHours)
	}
}

func TestKillPolicy(t *testing.T) {
	r, err := Run(oneCoreConfig(core.PolicyKill, storage.SSD), twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	// High job preempts instantly: response 60 s. Low job restarts from
	// scratch at 90 s: finishes 150 s -> response 150 s.
	if got := respOf(t, r, cluster.BandProduction); got != 60 {
		t.Errorf("high response = %v, want 60", got)
	}
	if got := respOf(t, r, cluster.BandFree); got != 150 {
		t.Errorf("low response = %v, want 150", got)
	}
	if r.Kills != 1 || r.Checkpoints != 0 {
		t.Errorf("kill counts: %+v", r)
	}
	// 30 s of one core wasted.
	if got := r.WastedCPUHours; got < 29.0/3600 || got > 31.0/3600 {
		t.Errorf("wasted = %v core-hours, want ~30s", got)
	}
}

func TestCheckpointPolicy(t *testing.T) {
	// 1 GB/s symmetric storage: dump 5 GB ~ 5.37 s, restore the same.
	cfg := oneCoreConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.CustomBandwidth = 1e9
	r, err := Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	dump := 5 * 1.0737 // 5 GiB at 1 GB/s, in seconds
	// High job waits for the dump: response ~ 60 + dump.
	if got := respOf(t, r, cluster.BandProduction); got < 60+dump-1 || got > 60+dump+1 {
		t.Errorf("high response = %v, want ~%v", got, 60+dump)
	}
	// Low job: progress banked; finishes ~ 30(run) + dump + 60(high) +
	// restore + 30(rest) ~ 130.7.
	wantLow := 30 + dump + 60 + dump + 30
	if got := respOf(t, r, cluster.BandFree); got < wantLow-2 || got > wantLow+2 {
		t.Errorf("low response = %v, want ~%v", got, wantLow)
	}
	if r.Checkpoints != 1 || r.Kills != 0 || r.Restores != 1 {
		t.Errorf("counts: %+v", r)
	}
	// Waste is only the checkpoint+restore overhead (~2*dump), well below
	// the kill policy's 30 s.
	if got := r.WastedCPUHours * 3600; got < 2*dump-1 || got > 2*dump+1 {
		t.Errorf("wasted = %vs, want ~%v", got, 2*dump)
	}
	if r.PeakImageBytes != cluster.GiB(5) {
		t.Errorf("peak image bytes = %d, want 5 GiB", r.PeakImageBytes)
	}
}

func TestAdaptivePolicyKillsYoungCheckpointsOld(t *testing.T) {
	// Slow storage (50 MB/s): overhead for 5 GB is ~200 s, far above the
	// 30 s progress -> adaptive kills, like the paper's low-bandwidth
	// regime.
	cfg := oneCoreConfig(core.PolicyAdaptive, storage.SSD)
	cfg.CustomBandwidth = 50e6
	r, err := Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.Kills != 1 || r.Checkpoints != 0 {
		t.Errorf("slow storage: kills=%d checkpoints=%d, want 1/0", r.Kills, r.Checkpoints)
	}
	// Fast storage (5 GB/s): overhead ~2 s < 30 s progress -> checkpoint.
	cfg.CustomBandwidth = 5e9
	r, err = Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 1 || r.Kills != 0 {
		t.Errorf("fast storage: kills=%d checkpoints=%d, want 0/1", r.Kills, r.Checkpoints)
	}
}

func TestAdaptiveNeverWorseThanBasicOnScenario(t *testing.T) {
	// Fig. 6 property: at every bandwidth the adaptive policy's high-
	// priority response is <= basic checkpoint's (within epsilon).
	for _, bw := range []float64{0.2e9, 0.5e9, 1e9, 2e9, 5e9} {
		basicCfg := oneCoreConfig(core.PolicyCheckpoint, storage.SSD)
		basicCfg.CustomBandwidth = bw
		adaptCfg := oneCoreConfig(core.PolicyAdaptive, storage.SSD)
		adaptCfg.CustomBandwidth = bw
		basic, err := Run(basicCfg, twoJobScenario())
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := Run(adaptCfg, twoJobScenario())
		if err != nil {
			t.Fatal(err)
		}
		if adapt.MeanResponse(cluster.BandProduction) > basic.MeanResponse(cluster.BandProduction)+0.5 {
			t.Errorf("bw %.1f GB/s: adaptive high %.1fs > basic %.1fs",
				bw/1e9, adapt.MeanResponse(cluster.BandProduction), basic.MeanResponse(cluster.BandProduction))
		}
	}
}

func TestIncrementalCheckpointOnSecondPreemption(t *testing.T) {
	// Three waves: low job runs, is checkpointed, resumes, is checkpointed
	// again -> second dump must be incremental.
	low := cluster.JobSpec{
		ID: 0, Priority: 0,
		Tasks: []cluster.TaskSpec{{
			ID:           cluster.TaskID{Job: 0},
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(6)},
			MemFootprint: cluster.GiB(5),
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
	cfg := oneCoreConfig(core.PolicyCheckpoint, storage.NVM)
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints != 2 {
		t.Fatalf("checkpoints = %d, want 2", r.Checkpoints)
	}
	if r.IncrementalCheckpoints != 1 {
		t.Errorf("incremental checkpoints = %d, want 1", r.IncrementalCheckpoints)
	}
	if r.Restores != 2 {
		t.Errorf("restores = %d, want 2", r.Restores)
	}
}

func TestUsefulCPUConservation(t *testing.T) {
	// Under any policy, useful CPU-hours must equal the sum of task
	// durations times cores: checkpointing banks progress, killing redoes
	// it, but completed work is completed work.
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: 3, Jobs: 60, MeanTasksPerJob: 3, Span: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range jobs {
		for j := range jobs[i].Tasks {
			ts := &jobs[i].Tasks[j]
			want += float64(ts.Demand.CPUMillis) / 1000 * ts.Duration.Hours()
		}
	}
	for _, policy := range []core.Policy{core.PolicyWait, core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive} {
		cfg := DefaultConfig(policy, storage.SSD)
		cfg.Nodes = 8
		r, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if r.TasksCompleted != trace.CountTasks(jobs) {
			t.Errorf("%v: completed %d of %d tasks", policy, r.TasksCompleted, trace.CountTasks(jobs))
		}
		if diff := r.UsefulCPUHours - want; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%v: useful = %v, want %v", policy, r.UsefulCPUHours, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	jobs, _ := trace.GenerateJobs(trace.JobsConfig{Seed: 5, Jobs: 40, MeanTasksPerJob: 4, Span: time.Hour})
	cfg := DefaultConfig(core.PolicyAdaptive, storage.HDD)
	cfg.Nodes = 6
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	jobs2, _ := trace.GenerateJobs(trace.JobsConfig{Seed: 5, Jobs: 40, MeanTasksPerJob: 4, Span: time.Hour})
	b, err := Run(cfg, jobs2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.WastedCPUHours != b.WastedCPUHours ||
		a.Preemptions != b.Preemptions || a.EnergyKWh != b.EnergyKWh {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestKillWastesMoreThanCheckpoint(t *testing.T) {
	// The headline Fig. 3a relation on a contended cluster.
	jobs, _ := trace.GenerateJobs(trace.JobsConfig{Seed: 11, Jobs: 120, MeanTasksPerJob: 4, Span: 2 * time.Hour})
	run := func(policy core.Policy, kind storage.Kind) *Result {
		cfg := DefaultConfig(policy, kind)
		cfg.Nodes = 6 // tight cluster to force contention
		r, err := Run(cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	kill := run(core.PolicyKill, storage.SSD)
	if kill.Preemptions == 0 {
		t.Fatal("scenario produced no preemptions; tighten the cluster")
	}
	chkSSD := run(core.PolicyCheckpoint, storage.SSD)
	chkNVM := run(core.PolicyCheckpoint, storage.NVM)
	if kill.WastedCPUHours <= chkSSD.WastedCPUHours {
		t.Errorf("kill waste %.2f <= checkpoint-SSD waste %.2f", kill.WastedCPUHours, chkSSD.WastedCPUHours)
	}
	if chkSSD.WastedCPUHours <= chkNVM.WastedCPUHours {
		t.Errorf("SSD waste %.2f <= NVM waste %.2f", chkSSD.WastedCPUHours, chkNVM.WastedCPUHours)
	}
}

func TestConfigValidation(t *testing.T) {
	jobs := twoJobScenario()
	unit := cluster.Resources{CPUMillis: 1, MemBytes: 1}
	cfg := func(nodes int, capacity cluster.Resources, policy core.Policy, edit func(*Config)) Config {
		c := Config{NodeCapacity: capacity}
		c.Nodes, c.Policy = nodes, policy
		if edit != nil {
			edit(&c)
		}
		return c
	}
	bad := []Config{
		cfg(0, unit, core.PolicyKill, nil),
		cfg(1, cluster.Resources{}, core.PolicyKill, nil),
		cfg(1, unit, 0, nil),
		cfg(1, unit, core.PolicyKill, func(c *Config) { c.CustomBandwidth = -1 }),
		// What construction cannot build is an error, not a panic: no
		// preset for the kind.
		cfg(1, unit, core.PolicyKill, nil),
		cfg(1, unit, core.PolicyKill, func(c *Config) { c.StorageKind = storage.Custom }),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, jobs); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A custom bandwidth stands in for the kind, whatever it says.
	custom := oneCoreConfig(core.PolicyCheckpoint, 0)
	custom.CustomBandwidth = 2e9
	if r, err := Run(custom, twoJobScenario()); err != nil {
		t.Errorf("custom-bandwidth run: %v", err)
	} else if r.Storage != "2.0GB/s" {
		t.Errorf("custom-bandwidth run labelled %q", r.Storage)
	}
	// Oversized task demand must be rejected.
	big := twoJobScenario()
	big[0].Tasks[0].Demand.CPUMillis = cluster.Cores(99)
	if _, err := Run(oneCoreConfig(core.PolicyKill, storage.SSD), big); err == nil {
		t.Error("oversized task accepted")
	}
	// A task priority outside the pending queue's levels is an error naming
	// the task, not an index panic in the queue.
	for _, prio := range []cluster.Priority{-1, cluster.MaxPriority + 1} {
		odd := twoJobScenario()
		odd[1].Tasks[0].Priority = prio
		if _, err := Run(oneCoreConfig(core.PolicyKill, storage.SSD), odd); err == nil || !strings.Contains(err.Error(), "task 1/0") {
			t.Errorf("task priority %d: Run returned %v, want an error naming task 1/0", prio, err)
		}
	}
}

func TestRemoteRestoreHappensUnderContention(t *testing.T) {
	// Two nodes; the checkpointed task's home node is kept busy by a
	// high-priority task, so the restore must go remote.
	mkTask := func(job cluster.JobID, prio cluster.Priority, submit, dur time.Duration, cpu float64) cluster.JobSpec {
		return cluster.JobSpec{
			ID: job, Priority: prio, Submit: submit,
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: job},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(cpu), MemBytes: cluster.GiB(2)},
				MemFootprint: cluster.GiB(1),
				Duration:     dur,
				Submit:       submit,
			}},
		}
	}
	jobs := []cluster.JobSpec{
		mkTask(0, 0, 0, 2*time.Minute, 1),                // low on node 0
		mkTask(1, 0, 0, 10*time.Minute, 1),               // low on node 1
		mkTask(2, 10, 30*time.Second, 10*time.Minute, 1), // high: preempts job 0 on node 0 and occupies it
	}
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.NVM)
	cfg.Nodes = 2
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(8)}
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	_ = r
	if r.Checkpoints == 0 {
		t.Fatal("no checkpoint happened")
	}
	// Job 0 cannot restore on node 0 (high job holds it 10 min) nor node 1
	// (job 1 holds it 10 min)... it waits for the first of them. This
	// scenario asserts the run completes and restore occurred.
	if r.Restores == 0 {
		t.Error("checkpointed task never restored")
	}
	if r.TasksCompleted != 3 {
		t.Errorf("completed %d tasks, want 3", r.TasksCompleted)
	}
}

// Property: random small workloads complete under every policy with
// non-negative accounting and policy-consistent counters.
func TestPolicyInvariantsProperty(t *testing.T) {
	f := func(seed int64, jobsN uint8) bool {
		n := int(jobsN%30) + 2
		jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: seed, Jobs: n, MeanTasksPerJob: 3, Span: 30 * time.Minute})
		if err != nil {
			return false
		}
		for _, policy := range []core.Policy{core.PolicyWait, core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive} {
			cfg := DefaultConfig(policy, storage.SSD)
			cfg.Nodes = 4
			r, err := Run(cfg, jobs)
			if err != nil {
				return false
			}
			if r.TasksCompleted != trace.CountTasks(jobs) {
				return false
			}
			if r.WastedCPUHours < 0 || r.UsefulCPUHours <= 0 || r.EnergyKWh <= 0 {
				return false
			}
			switch policy {
			case core.PolicyWait:
				if r.Preemptions != 0 || r.Kills != 0 || r.Checkpoints != 0 {
					return false
				}
			case core.PolicyKill:
				if r.Checkpoints != 0 || r.Restores != 0 {
					return false
				}
			case core.PolicyCheckpoint:
				if r.Kills != 0 {
					return false
				}
			}
			if r.JobResponseAllSec.N() != len(jobs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
