package sched

import (
	"bytes"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

func TestPreCopyBanksWindowProgress(t *testing.T) {
	// 1 GB/s device, 5 GiB image: the pre-copy window is ~5.4 s during
	// which the victim keeps computing. Its response time must improve by
	// roughly that window relative to stop-and-copy.
	cfg := oneCoreConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.CustomBandwidth = 1e9
	stop, err := Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	cfg.PreCopy = true
	pre, err := Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	if pre.PreCopies != 1 || pre.Checkpoints != 1 {
		t.Fatalf("precopies=%d checkpoints=%d", pre.PreCopies, pre.Checkpoints)
	}
	lowStop := stop.MeanResponse(cluster.BandFree)
	lowPre := pre.MeanResponse(cluster.BandFree)
	if lowPre >= lowStop {
		t.Errorf("pre-copy low response %.1f not better than stop-and-copy %.1f", lowPre, lowStop)
	}
	// The victim banks the ~5.4 s window; expected gain is a few seconds.
	if gain := lowStop - lowPre; gain < 2 || gain > 12 {
		t.Errorf("gain %.1fs implausible for a ~5.4s window", gain)
	}
	// Overhead (frozen time) shrinks.
	if pre.OverheadCPUHours >= stop.OverheadCPUHours {
		t.Errorf("pre-copy overhead %.5f not below stop-and-copy %.5f", pre.OverheadCPUHours, stop.OverheadCPUHours)
	}
}

func TestPreCopyVictimCompletesDuringWindow(t *testing.T) {
	// HDD: the 5 GiB pre-copy window (~170s) exceeds the victim's 30s of
	// remaining work; it completes mid-window and no restore happens.
	cfg := oneCoreConfig(core.PolicyCheckpoint, storage.HDD)
	cfg.PreCopy = true
	r, err := Run(cfg, twoJobScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r.PreCopies != 1 {
		t.Fatalf("precopies = %d", r.PreCopies)
	}
	if r.TasksCompleted != 2 {
		t.Errorf("completed %d of 2", r.TasksCompleted)
	}
	if r.Restores != 0 {
		t.Errorf("restores = %d, want 0 (victim finished on its own)", r.Restores)
	}
}

func TestPreCopyConservationAndDeterminism(t *testing.T) {
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: 17, Jobs: 80, MeanTasksPerJob: 4, Span: time.Hour})
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
	cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cfg.Nodes = 6
	cfg.PreCopy = true
	a, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if diff := a.UsefulCPUHours - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("useful = %v, want %v", a.UsefulCPUHours, want)
	}
	b, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.PreCopies != b.PreCopies || a.WastedCPUHours != b.WastedCPUHours {
		t.Error("pre-copy runs not deterministic")
	}
}

// GIVEN a task pre-copying on node 0 from 60 s, fenced when node 0 fails at
// 61 s and placed again on node 1 by that instant's pass, then preempted
// into a second pre-copy there at 62 s (8 GiB on SSD: the two windows end
// about 134.7 s and 136.7 s),
// WHEN the first window's timer fires,
// THEN it leaves the second attempt alone: the task is still running and
// pre-copying until its own window ends, and only that timer freezes it.
func TestStalePreCopyTimerSparesTheNextAttempt(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.PreCopy = true
	s, err := newSimulator(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	job := &cluster.JobSpec{Tasks: []cluster.TaskSpec{{
		Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(8)},
		MemFootprint: cluster.GiB(8),
		Duration:     time.Hour,
	}}}
	spec := &job.Tasks[0]
	task := &taskRT{spec: spec, job: newJobRT(job, s), remaining: spec.Duration}
	s.engine.At(0, sim.Handler(func(now sim.Time) {
		s.enqueue(task, now)
		s.requestSchedule(now)
	}))
	s.engine.At(sim.Time(60*time.Second), sim.Handler(func(now sim.Time) { s.preemptTask(task, now) }))
	s.engine.At(sim.Time(61*time.Second), sim.Handler(func(now sim.Time) { s.failNode(NodeFailure{Node: 0}, now) }))
	s.engine.At(sim.Time(62*time.Second), sim.Handler(func(now sim.Time) {
		if task.node != s.nodes[1] || task.phase != phaseRunning {
			t.Fatalf("at %v the task is in phase %d on %v, want running on node 1", now, task.phase, task.node)
		}
		s.preemptTask(task, now)
	}))
	window := s.nodes[0].Device.WriteTime(spec.MemFootprint)
	first, second := sim.Time(60*time.Second)+window, sim.Time(62*time.Second)+window

	s.engine.RunUntil(first)
	if task.phase != phaseRunning || !task.preCopying {
		t.Fatalf("at %v, when the fenced attempt's window ends, the task is in phase %d (pre-copying %v); want running and pre-copying until %v",
			first, task.phase, task.preCopying, second)
	}
	s.engine.RunUntil(second)
	if task.phase != phaseCheckpointing {
		t.Fatalf("at %v, when the second window ends, the task is in phase %d, want frozen", second, task.phase)
	}
	s.engine.Run()
	if s.res.TasksCompleted != 1 || s.res.PreCopies != 2 || s.res.FailureRestarts != 1 {
		t.Errorf("completed %d, pre-copies %d, failure restarts %d; want 1, 2, 1",
			s.res.TasksCompleted, s.res.PreCopies, s.res.FailureRestarts)
	}
}

// GIVEN a pre-copy checkpoint under a flight recorder — a pre-dump while
// the victim runs, then a freeze dump of the delta,
// WHEN the round trip is journaled,
// THEN it reads as the yarn layer's does (one definition per shape,
// DESIGN.md §13): both dump windows carry the verdict's estimate, and the
// restore's Actual is pre-dump + freeze dump + its own window, since the
// estimate prices the bulk write the pre-dump performed.
func TestPreCopyRoundTripJournal(t *testing.T) {
	cfg := oneCoreConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.CustomBandwidth = 1e9
	cfg.PreCopy = true
	rec := obs.NewRecorder(0, 0)
	cfg.Observer = rec
	if _, err := Run(cfg, twoJobScenario()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Record)
	for _, r := range j.Records {
		byName[r.Name] = r
	}
	verdict, pre, dump, restore := byName["checkpoint-full"], byName["pre-dump"], byName["dump"], byName["restore"]
	if verdict.Est == 0 || pre.Actual == 0 || dump.Actual == 0 || restore.Actual == 0 {
		t.Fatalf("journal lacks a full pre-copy round trip: %+v", j.Records)
	}
	if pre.Est != verdict.Est || dump.Est != verdict.Est || restore.Est != verdict.Est {
		t.Errorf("estimates pre-dump %v, dump %v, restore %v; want the verdict's %v on all three",
			pre.Est, dump.Est, restore.Est, verdict.Est)
	}
	window := restore.Actual - pre.Actual - dump.Actual
	if want := time.Duration(float64(restore.Bytes) / 1e9 * float64(time.Second)); window != want {
		t.Errorf("restore actual %v leaves %v after the dump windows %v + %v, want the %v image read",
			restore.Actual, window, pre.Actual, dump.Actual, want)
	}
}
