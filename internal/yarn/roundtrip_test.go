package yarn

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// oneSlotJob is a single-task job on the 1 x 1 cluster the round-trip
// scenarios below run on.
func oneSlotJob(id cluster.JobID, prio cluster.Priority, submit, dur time.Duration) cluster.JobSpec {
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

// journaledRun executes jobs on a 1 x 1 cluster under cfg with a flight
// recorder attached and returns the records about task 0/0 plus the run's
// metrics. breakStoreAt, when positive, is the virtual time from which the
// node's checkpoint store refuses every Create, so dumps after it fail
// while images written before it still restore.
func journaledRun(t *testing.T, cfg Config, breakStoreAt time.Duration, jobs []cluster.JobSpec) ([]obs.Record, obs.Snapshot) {
	t.Helper()
	story, res := journaledResult(t, cfg, breakStoreAt, jobs)
	return story, res.Metrics
}

// journaledResult is journaledRun returning the run's whole Result, task
// checksums included.
func journaledResult(t *testing.T, cfg Config, breakStoreAt time.Duration, jobs []cluster.JobSpec) ([]obs.Record, *Result) {
	t.Helper()
	cfg.Nodes = 1
	cfg.ContainersPerNode = 1
	cfg.Replication = 1
	rec := obs.NewRecorder(0, 0)
	cfg.Observer = rec
	c, err := newCluster(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		am := newAppMaster(c, &jobs[i])
		c.engine.At(jobs[i].Submit, sim.Handler(am.submit))
	}
	if breakStoreAt > 0 {
		c.engine.At(breakStoreAt, sim.Handler(func(sim.Time) {
			c.nodes[0].store = noCreates{c.nodes[0].store}
		}))
	}
	c.finish(c.engine.Run())
	if c.res.TasksCompleted != len(jobs) {
		t.Fatalf("%d of %d tasks completed", c.res.TasksCompleted, len(jobs))
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var story []obs.Record
	for _, r := range j.Records {
		if r.Task == "0/0" && r.Name != "task-done" {
			story = append(story, r)
		}
	}
	return story, c.res
}

// noCreates is a checkpoint store that can no longer be written to.
type noCreates struct{ storage.Store }

func (noCreates) Create(name string) (io.WriteCloser, error) {
	return nil, fmt.Errorf("create %s: store is read-only", name)
}

func names(story []obs.Record) []string {
	out := make([]string, len(story))
	for i, r := range story {
		out[i] = r.Name
	}
	return out
}

// GIVEN a task that is checkpointed and restored (one whole round trip),
// then killed by a second verdict a few seconds into its resumed attempt
// and restored again from the same image,
// WHEN the two restores are journaled,
// THEN the first carries the checkpoint verdict's estimate against the
// measured dump + restore, and the second — whose image was paid for by
// the trip the first restore already closed — carries no estimate, only
// its own restore window, and adds nothing to
// yarn.overhead.estimate.relerr.
func TestRestoreAfterKillCarriesNoEstimate(t *testing.T) {
	story, snap := journaledRun(t, DefaultConfig(core.PolicyAdaptive, storage.HDD), 0, []cluster.JobSpec{
		oneSlotJob(0, 0, 0, 10*time.Minute),
		oneSlotJob(1, 10, 5*time.Minute, time.Minute), // 5m unsaved > overhead: checkpoint
		oneSlotJob(2, 10, 7*time.Minute, time.Minute), // seconds into the resumed attempt: kill
	})
	want := []string{"checkpoint-full", "dump", "restore", "kill", "restore"}
	if got := names(story); !slices.Equal(got, want) {
		t.Fatalf("task 0/0 story = %v, want %v", got, want)
	}
	dump, first, second := story[1], story[2], story[4]
	if first.Est != story[0].Est || first.Est == 0 {
		t.Errorf("first restore est %v, want the checkpoint verdict's %v", first.Est, story[0].Est)
	}
	window := first.Actual - dump.Actual
	if window <= 0 {
		t.Fatalf("first restore actual %v does not cover dump %v plus a restore window", first.Actual, dump.Actual)
	}
	if second.Est != 0 || second.Actual != window {
		t.Errorf("second restore est %v actual %v, want est 0 and the restore window %v alone", second.Est, second.Actual, window)
	}
	if h := snap.Hist("yarn.overhead.estimate.relerr"); h.Count != 1 {
		t.Errorf("relerr observed %d round trips, want 1: the kill's restore closes none", h.Count)
	}
}

// GIVEN a checkpoint verdict whose dump fails at the store, degrading to
// a kill-fallback, on a task that still holds an older image,
// WHEN the task is restored from that older image,
// THEN the failed attempt's estimate is gone: the restore carries no
// estimate and no relerr sample is taken for a round trip that never
// wrote an image.
func TestKillFallbackLeavesNoEstimate(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.HDD)
	story, snap := journaledRun(t, cfg, 4*time.Minute, []cluster.JobSpec{
		oneSlotJob(0, 0, 0, 10*time.Minute),
		oneSlotJob(1, 10, 2*time.Minute, time.Minute),
		oneSlotJob(2, 10, 6*time.Minute, time.Minute),
	})
	want := []string{"checkpoint-full", "dump", "restore", "checkpoint-incremental", "kill-fallback", "restore"}
	if got := names(story); !slices.Equal(got, want) {
		t.Fatalf("task 0/0 story = %v, want %v", got, want)
	}
	if last := story[5]; last.Est != 0 {
		t.Errorf("restore after kill-fallback carries est %v (actual %v), want none", last.Est, last.Actual)
	}
	if h := snap.Hist("yarn.overhead.estimate.relerr"); h.Count != 1 {
		t.Errorf("relerr observed %d round trips, want 1: the failed dump completes none", h.Count)
	}
}

// GIVEN a pre-copy checkpoint whose pre-dump lands, on a store that breaks
// one second later so the freeze's delta dump fails,
// WHEN the freeze degrades to a kill-fallback and the task restores from
// the pre-dump,
// THEN the fallback charges only the step banked in the write window
// (rolled back to the pre-dump's step boundary), the restore carries no
// estimate, and the resumed task computes exactly what an undisturbed run
// of it does.
func TestPreCopyFreezeFailureRollsBackToPreDump(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.HDD)
	cfg.PreCopy = true
	victim := oneSlotJob(0, 0, 0, 5*time.Minute)
	story, res := journaledResult(t, cfg, 2*time.Minute+time.Second, []cluster.JobSpec{
		victim,
		oneSlotJob(1, 10, 2*time.Minute, time.Minute),
	})
	want := []string{"checkpoint-full", "pre-dump", "kill-fallback", "restore"}
	if got := names(story); !slices.Equal(got, want) {
		t.Fatalf("task 0/0 story = %v, want %v", got, want)
	}
	if fallback := story[2]; fallback.Unsaved != 30*time.Second {
		t.Errorf("kill-fallback unsaved %v, want 30s: the one step banked since the pre-dump", fallback.Unsaved)
	}
	if restore := story[3]; restore.Est != 0 {
		t.Errorf("restore after kill-fallback carries est %v, want none", restore.Est)
	}
	// The one preemption ended as a kill: the pre-dump that landed is a
	// pre-copy, not a checkpoint, once its freeze dump fails.
	if res.Checkpoints != 0 || res.Kills != 1 || res.FallbackKills != 1 || res.PreCopies != 1 ||
		res.Preemptions != res.Kills+res.Checkpoints {
		t.Errorf("Preemptions=%d Kills=%d Checkpoints=%d FallbackKills=%d PreCopies=%d, want 1 1 0 1 1",
			res.Preemptions, res.Kills, res.Checkpoints, res.FallbackKills, res.PreCopies)
	}

	_, clean := journaledResult(t, cfg, 0, []cluster.JobSpec{victim})
	id := victim.Tasks[0].ID
	if got, want := res.TaskChecksums[id], clean.TaskChecksums[id]; got != want || want == 0 {
		t.Errorf("resumed task checksum %x, undisturbed run %x", got, want)
	}
}
