package yarn

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// Where the framework gives address spaces back; DESIGN §16.6 has the owner
// table. CI runs these five more times under -race.

// liveTask puts a task with a real process of the configured program on n,
// running since since.
func (b testBooks) liveTask(t *testing.T, idx int32, n *NodeManager, since sim.Time) *taskRun {
	t.Helper()
	v := b.task(cluster.TaskID{Job: 1, Index: idx}, 0, cluster.GiB(1))
	p, err := b.am.newProcess(v)
	if err != nil {
		t.Fatal(err)
	}
	v.process = p
	b.run(v, n, since)
	return v
}

func memoryBytes(p *proc.Process) []byte {
	m := p.Memory()
	out := make([]byte, 0, m.RealBytes())
	for i := 0; i < m.NumPages(); i++ {
		out = append(out, m.Page(i)...)
	}
	return out
}

// GIVEN a service-shaped k-means process, and an array of its size that a
// previous owner left full of 0xA5 on the list,
// WHEN the same task's process is created again,
// THEN it is built on that array, every page is soft-dirty, its bytes and
// checksumProcess are the first process's, and after both run to the end
// their checksums still agree.
func TestRecycledSpaceChecksumsAsFresh(t *testing.T) {
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.KMeansPoints, cfg.KMeansDims, cfg.KMeansK, cfg.KMeansIters = 8, 2, 2, 2
	b := newTestBooks(t, cfg)
	v := b.task(cluster.TaskID{Job: 3, Index: 1}, 0, cluster.GiB(1))
	first, err := b.am.newProcess(v)
	if err != nil {
		t.Fatal(err)
	}
	pages := first.Memory().NumPages()
	dirty := proc.GetSpace(pages)
	for i := range dirty {
		dirty[i] = 0xA5
	}
	proc.PutSpace(dirty)
	again, err := b.am.newProcess(v)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Memory().Page(0)[0] != &dirty[0] {
		t.Fatal("the second process is not built on the listed array")
	}
	if got := again.Memory().DirtyCount(); got != pages {
		t.Errorf("%d of %d pages soft-dirty", got, pages)
	}
	if !bytes.Equal(memoryBytes(again), memoryBytes(first)) || checksumProcess(again) != checksumProcess(first) {
		t.Error("the process on the recycled array differs from the first")
	}
	v.process = first
	if err := v.advanceTo(v.totalSteps); err != nil {
		t.Fatal(err)
	}
	v.process = again
	if err := v.advanceTo(v.totalSteps); err != nil {
		t.Fatal(err)
	}
	if checksumProcess(again) != checksumProcess(first) {
		t.Error("run to the end, the two processes checksum differently")
	}
}

// GIVEN a running task with a real process, one per release point of the
// owner table,
// WHEN the task completes (running out inline, or on the finisher pool,
// which then drains), is killed, is checkpointed (frozen dump, and the
// delta dump that ends a pre-copy), is fenced off a partitioned node, or its
// node crashes,
// THEN the task holds no process, the old one's memory is empty, and its
// array is the one the next process on the cluster is built on. After the
// frozen dump, scribbling over that next process leaves the image intact: it
// restores to the bytes the task had when it was frozen.
func TestReleasePoints(t *testing.T) {
	const now = sim.Time(time.Minute)
	for _, tc := range []struct {
		name  string
		setup func(*Config)
		run   func(t *testing.T, b testBooks, v *taskRun)
	}{
		{"complete", nil, func(t *testing.T, b testBooks, v *taskRun) { b.am.onComplete(v, now) }},
		{"complete on the finisher pool", nil, func(t *testing.T, b testBooks, v *taskRun) {
			b.c.startFinishers(2)
			b.am.onComplete(v, now)
			if v.process != nil {
				t.Fatal("the task holds its process after the hand-over")
			}
			b.c.joinFinishers()
		}},
		{"kill", nil, func(t *testing.T, b testBooks, v *taskRun) { b.am.kill(v, v.node, 0, now) }},
		{"frozen dump", nil, func(t *testing.T, b testBooks, v *taskRun) { b.am.onPreempt(v, now) }},
		{"pre-copy delta dump", func(c *Config) { c.PreCopy = true }, func(t *testing.T, b testBooks, v *taskRun) {
			b.am.onPreempt(v, now)
			if v.process == nil || !v.preCopying {
				t.Fatal("the pre-dump froze the task")
			}
			for v.preCopying && b.c.engine.Pending() > 0 {
				b.c.engine.Step()
			}
		}},
		{"partition fence", nil, func(t *testing.T, b testBooks, v *taskRun) { b.c.declareNodeDead(v.node, now) }},
		{"crash", nil, func(t *testing.T, b testBooks, v *taskRun) { b.c.crashNM(now) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
			cfg.Nodes, cfg.ContainersPerNode = 2, 2
			cfg.NMLivenessTimeout = 30 * time.Second
			cfg.Faults = &faults.Plan{Seed: 1, NMCrashNode: 1, NMCrashAt: time.Minute}
			if tc.setup != nil {
				tc.setup(&cfg)
			}
			b := newTestBooks(t, cfg)
			n := b.c.nodes[1]
			v := b.liveTask(t, 0, n, now)
			old := v.process
			page0, want := old.Memory().Page(0), memoryBytes(old)

			tc.run(t, b, v)
			if v.process != nil || old.Memory().NumPages() != 0 {
				t.Fatalf("task holds process %v; the old one has %d pages", v.process, old.Memory().NumPages())
			}
			next := b.liveTask(t, 1, b.c.nodes[0], now)
			if &next.process.Memory().Page(0)[0] != &page0[0] {
				t.Fatal("the next process is not built on the released array")
			}
			if tc.name != "frozen dump" {
				return
			}
			if err := next.process.Memory().WriteAt(bytes.Repeat([]byte{0xEE}, len(want)), 0); err != nil {
				t.Fatal(err)
			}
			restored, _, err := b.c.ckpt.Restore(n.store, fmt.Sprintf("/ckpt/%s/0", v.spec.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(memoryBytes(restored), want) {
				t.Error("the image restores to other bytes than the frozen task had")
			}
		})
	}
}
