package yarn

import (
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

func TestPreCopyCheckpointTransparent(t *testing.T) {
	jobs := smallWorkload()
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.CustomBandwidth = 1e9

	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PreCopy = true
	pre, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if pre.PreCopies != 1 || pre.Checkpoints != 1 {
		t.Fatalf("precopies=%d checkpoints=%d, want 1/1", pre.PreCopies, pre.Checkpoints)
	}
	if pre.Restores != 1 {
		t.Errorf("restores = %d", pre.Restores)
	}
	// Transparency: results identical to the stop-and-copy run.
	for id, want := range ref.TaskChecksums {
		if got := pre.TaskChecksums[id]; got != want {
			t.Errorf("task %v checksum %x != stop-and-copy %x", id, got, want)
		}
	}
	// The low-priority victim keeps running during the bulk dump, so its
	// response must not be worse than stop-and-copy's.
	if pre.MeanResponse(cluster.BandFree) > ref.MeanResponse(cluster.BandFree)+0.5 {
		t.Errorf("pre-copy low response %.1f worse than stop-and-copy %.1f",
			pre.MeanResponse(cluster.BandFree), ref.MeanResponse(cluster.BandFree))
	}
	// The frozen (overhead) window shrinks: CPU overhead strictly below
	// stop-and-copy, because the bulk dump overlaps useful execution.
	if pre.OverheadCPUHours >= ref.OverheadCPUHours {
		t.Errorf("pre-copy overhead %.4f not below stop-and-copy %.4f",
			pre.OverheadCPUHours, ref.OverheadCPUHours)
	}
}

func TestPreCopyOnMixedWorkload(t *testing.T) {
	jobs := mixedWorkload(t)
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 3
	cfg.PreCopy = true
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.PreCopies == 0 {
		t.Fatal("no pre-copies on contended workload")
	}
	if r.TasksCompleted != countTasks(jobs) {
		t.Errorf("completed %d of %d", r.TasksCompleted, countTasks(jobs))
	}
	// Compare against the wait-run reference for transparency.
	refCfg := DefaultConfig(core.PolicyWait, storage.SSD)
	refCfg.Nodes = 2
	refCfg.ContainersPerNode = 3
	ref, err := Run(refCfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range ref.TaskChecksums {
		if got := r.TaskChecksums[id]; got != want {
			t.Fatalf("task %v diverged under pre-copy", id)
		}
	}
}

// GIVEN a task pre-copying on node 0 from 60 s, fenced when the RM declares
// node 0 dead at 61 s and restored on node 1 from its pre-dump image (done
// about 83.6 s), then preempted into a second pre-copy there at 90 s that
// is still queued on node 1's device when the first window (4 GiB on SSD)
// ends about 97.3 s,
// WHEN the first window's timer fires,
// THEN it leaves the second attempt alone — no freeze against the dead
// node's store and device, no slot released there twice — and the task is
// still running and pre-copying until its own window ends.
func TestStalePreCopyTimerSparesTheNextAttempt(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 1
	cfg.PreCopy = true
	c, err := newCluster(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	job := oneSlotJob(0, 0, 0, time.Hour)
	job.Tasks[0].MemFootprint = cluster.GiB(4)
	am := newAppMaster(c, &job)
	task := am.tasks[0]
	on := func() int {
		if task.node == nil {
			return -1
		}
		return task.node.id
	}
	c.engine.At(0, sim.Handler(am.submit))
	c.engine.At(sim.Time(60*time.Second), sim.Handler(func(now sim.Time) { am.onPreempt(task, now) }))
	c.engine.At(sim.Time(61*time.Second), sim.Handler(func(now sim.Time) { c.declareNodeDead(c.nodes[0], now) }))
	c.engine.At(sim.Time(90*time.Second), sim.Handler(func(now sim.Time) {
		if task.node != c.nodes[1] || task.state != stateRunning {
			t.Fatalf("at %v the task is in state %d on node %d, want running on node 1", now, task.state, on())
		}
		// Another container's dump holds node 1's checkpoint queue, so the
		// second pre-dump — an incremental one, a few pages since the
		// restore — is still waiting when the first window ends.
		c.nodes[1].Device.ReserveWrite(now, cluster.GiB(4))
		am.onPreempt(task, now)
	}))
	first := sim.Time(60*time.Second) + c.nodes[0].Device.WriteTime(job.Tasks[0].MemFootprint)

	c.engine.RunUntil(first)
	if task.state != stateRunning || !task.preCopying || task.node != c.nodes[1] {
		t.Fatalf("at %v, when the fenced attempt's window ends, the task is in state %d (pre-copying %v) on node %d; want running and pre-copying on node 1",
			first, task.state, task.preCopying, on())
	}
	c.finish(c.engine.Run())
	if c.res.TasksCompleted != 1 || c.res.PreCopies != 2 || c.res.DumpFailures != 0 {
		t.Errorf("completed %d, pre-copies %d, dump failures %d; want 1, 2, 0",
			c.res.TasksCompleted, c.res.PreCopies, c.res.DumpFailures)
	}
}

func TestPreCopyVictimMayCompleteDuringWindow(t *testing.T) {
	// Slow device: the pre-copy window exceeds the victim's remaining
	// runtime, so the victim completes mid-window and the freeze must
	// abort cleanly.
	mk := func(id cluster.JobID, prio cluster.Priority, submit, dur time.Duration, fp int64) cluster.JobSpec {
		return cluster.JobSpec{
			ID: id, Priority: prio, Submit: submit,
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: id},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(6)},
				MemFootprint: fp,
				Duration:     dur,
				Submit:       submit,
			}},
		}
	}
	jobs := []cluster.JobSpec{
		mk(0, 0, 0, time.Minute, cluster.GiB(5)), // dump at 30 MB/s takes ~170s >> 30s left
		mk(1, 10, 30*time.Second, time.Minute, cluster.GiB(1)),
	}
	cfg := tinyCluster(core.PolicyCheckpoint)
	cfg.StorageKind = storage.HDD
	cfg.CustomBandwidth = 0
	cfg.PreCopy = true
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.PreCopies != 1 {
		t.Fatalf("precopies = %d", r.PreCopies)
	}
	if r.TasksCompleted != 2 {
		t.Errorf("completed %d of 2", r.TasksCompleted)
	}
	// No restore should have happened: the victim finished on its own.
	if r.Restores != 0 {
		t.Errorf("restores = %d, want 0", r.Restores)
	}
}
