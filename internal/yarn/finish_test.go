package yarn

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/kmeans"
	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
)

// GIVEN the bench's smoke shape — the 60-task Facebook mix at seed 21 on 2
// NodeManagers of 4 containers under the adaptive policy on SSD, which
// preempts — with pre-copy off, with it on, and with node 1 crashing,
// WHEN it runs at GOMAXPROCS 1 (tasks run out inline), 2 and 8 (a
// finisher pool of that width),
// THEN every width gives the same TaskChecksums, the same Outcome and the
// byte-identical journal.
func TestFinisherPoolIsInvisible(t *testing.T) {
	fc := workload.DefaultFacebookConfig()
	fc.Seed, fc.Jobs, fc.TotalTasks = 21, 4, 60
	jobs, err := workload.Facebook(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, leg := range []struct {
		name  string
		setup func(*Config)
	}{
		{"frozen", func(*Config) {}},
		{"pre-copy", func(c *Config) { c.PreCopy = true }},
		{"node crash", func(c *Config) { c.Faults = &faults.Plan{Seed: 1, NMCrashNode: 1, NMCrashAt: 2 * time.Minute} }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			var first *Result
			var firstJournal []byte
			for _, width := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(width)
				cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
				cfg.Nodes, cfg.ContainersPerNode = 2, 4
				leg.setup(&cfg)
				rec := obs.NewRecorder(1<<20, 64)
				cfg.Observer = rec
				r, err := Run(cfg, jobs)
				if err != nil {
					t.Fatal(err)
				}
				journal := journalBytes(t, rec)
				if first == nil {
					if len(r.TaskChecksums) != countTasks(jobs) || r.Preemptions == 0 {
						t.Fatalf("%d checksums for %d tasks, %d preemptions: not a preempting run",
							len(r.TaskChecksums), countTasks(jobs), r.Preemptions)
					}
					if cfg.Faults != nil && r.NodeFailures == 0 {
						t.Fatal("the crash leg saw no node failure")
					}
					first, firstJournal = r, journal
					continue
				}
				if !reflect.DeepEqual(r.TaskChecksums, first.TaskChecksums) {
					t.Errorf("GOMAXPROCS %d: task checksums differ from GOMAXPROCS 1's", width)
				}
				if !reflect.DeepEqual(r.Outcome, first.Outcome) {
					t.Errorf("GOMAXPROCS %d: outcome differs from GOMAXPROCS 1's:\n%+v\n%+v", width, r.Outcome, first.Outcome)
				}
				if !bytes.Equal(journal, firstJournal) {
					t.Errorf("GOMAXPROCS %d: journal differs from GOMAXPROCS 1's", width)
				}
			}
		})
	}
}

var errBoom = errors.New("boom")

// failAt is a program that fails at step k and never exits.
type failAt struct{ k uint64 }

func (failAt) Name() string             { return "fail-at" }
func (failAt) Init(*proc.Process) error { return nil }
func (f failAt) Step(p *proc.Process) (bool, error) {
	if p.Steps() == f.k {
		return false, errBoom
	}
	return false, nil
}

// GIVEN running tasks whose programs fail at a step before their last, or
// never exit,
// WHEN they complete — handed over in descending seq order — to a finisher
// pool, or run out inline,
// THEN no finisher panics; the run's finish panics on the calling goroutine
// with the message the lowest-seq failure would have panicked with at its
// completion, and every failed process's pages are released.
func TestFinisherFailsWhereCallersSeeIt(t *testing.T) {
	const now = sim.Time(time.Minute)
	for _, tc := range []struct {
		name  string
		steps []uint64 // each task's failing step, in seq order
		want  func(ids []cluster.TaskID) string
	}{
		{"step error", []uint64{3, 5}, func(ids []cluster.TaskID) string {
			return fmt.Sprintf("yarn: finish %v: proc: program %q step 3: %v", ids[0], "fail-at", errBoom)
		}},
		{"never exits", []uint64{math.MaxUint64, 2}, func(ids []cluster.TaskID) string {
			return fmt.Sprintf("yarn: task %v finished at 10/10 steps but process is running", ids[0])
		}},
	} {
		for _, width := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/width %d", tc.name, width), func(t *testing.T) {
				b := newTestBooks(t, DefaultConfig(core.PolicyCheckpoint, storage.SSD))
				var tasks []*taskRun
				var ids []cluster.TaskID
				var procs []*proc.Process
				for i, k := range tc.steps {
					v := b.task(cluster.TaskID{Job: 1, Index: int32(i)}, 0, cluster.GiB(1))
					p, err := proc.New(v.spec.ID.String(), failAt{k}, proc.PageSize, proc.PageSize)
					if err != nil {
						t.Fatal(err)
					}
					v.process = p
					b.run(v, b.c.nodes[0], 0)
					tasks, ids, procs = append(tasks, v), append(ids, v.spec.ID), append(procs, p)
				}
				b.c.startFinishers(width)
				defer b.c.joinFinishers()
				for i := len(tasks) - 1; i >= 0; i-- {
					b.am.onComplete(tasks[i], now)
				}
				got := func() (msg any) {
					defer func() { msg = recover() }()
					b.c.finish(now)
					return nil
				}()
				if want := tc.want(ids); got != want {
					t.Errorf("finish panicked with %v, want %q", got, want)
				}
				for i, p := range procs {
					if p.Memory().NumPages() != 0 {
						t.Errorf("task %v's failed process still holds %d pages", ids[i], p.Memory().NumPages())
					}
				}
			})
		}
	}
}

// firstPreemption allocates a fresh task to node 1 of a new cluster built
// from cfg at time 0 — with its process built there when eager, as it was
// before processes were built lazily — and preempts it at now.
func firstPreemption(t *testing.T, cfg Config, eager bool, now sim.Time) (testBooks, *taskRun) {
	t.Helper()
	b := newTestBooks(t, cfg)
	v := b.task(cluster.TaskID{Job: 1, Index: 0}, 0, cluster.GiB(1))
	n := b.c.nodes[1]
	n.allocSlot(0, v)
	b.am.onAllocated(v, n, 0)
	if v.state != stateRunning || v.process != nil {
		t.Fatalf("after allocation the task is %v with process %v", v.state, v.process)
	}
	if eager {
		p, err := b.am.newProcess(v)
		if err != nil {
			t.Fatal(err)
		}
		v.process = p
	}
	b.am.onPreempt(v, now)
	return b, v
}

func imageBytes(t *testing.T, s storage.Store, name string) []byte {
	t.Helper()
	r, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// GIVEN a fresh task allocated a container,
// WHEN it runs until its first preemption, 45 % into its 10 steps,
// THEN it holds no process until then. A pre-copy builds the process at
// the preemption and advances it to exactly step 4; a frozen checkpoint
// dumps an image of step 4 byte-identical to the one an eagerly built
// process dumps; and a kill of the never-built task releases no pages and
// charges the waste the eagerly built one was charged.
func TestFirstPreemptionBuildsTheProcess(t *testing.T) {
	const now, target = sim.Time(270 * time.Second), 4
	cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cfg.Nodes, cfg.ContainersPerNode = 2, 2

	t.Run("pre-copy", func(t *testing.T) {
		cfg := cfg
		cfg.PreCopy = true
		_, v := firstPreemption(t, cfg, false, now)
		if !v.preCopying || v.process == nil || v.process.Steps() != target {
			t.Fatalf("pre-copying %v with process %v, want one at step %d", v.preCopying, v.process, target)
		}
	})

	t.Run("frozen dump", func(t *testing.T) {
		var images [2][]byte
		for i, eager := range []bool{false, true} {
			b, v := firstPreemption(t, cfg, eager, now)
			if v.state != stateCheckpointing || v.process != nil || b.c.res.Checkpoints != 1 {
				t.Fatalf("eager %v: task %v holds %v after %d checkpoints", eager, v.state, v.process, b.c.res.Checkpoints)
			}
			store := b.c.nodes[1].store
			name := fmt.Sprintf("/ckpt/%s/0", v.spec.ID)
			_, info, err := b.c.ckpt.Restore(store, name)
			if err != nil {
				t.Fatal(err)
			}
			if info.Steps != target {
				t.Errorf("eager %v: the image holds step %d, want %d", eager, info.Steps, target)
			}
			images[i] = imageBytes(t, store, name)
		}
		if !bytes.Equal(images[0], images[1]) {
			t.Error("the lazily built process dumps another image than the eagerly built one")
		}
	})

	t.Run("kill", func(t *testing.T) {
		cfg := cfg
		cfg.Policy = core.PolicyKill
		pages := int((kmeans.MemoryBytes(cfg.KMeansPoints, cfg.KMeansDims, cfg.KMeansK) + proc.PageSize - 1) / proc.PageSize)
		// An array of the process's size tops the list, marked: a process
		// built and released would have cleared it and overwritten it, or
		// listed its own above it.
		sentinel := proc.GetSpace(pages)
		for i := range sentinel {
			sentinel[i] = 0xA5
		}
		proc.PutSpace(sentinel)
		var waste [2]float64
		for i, eager := range []bool{false, true} {
			b, v := firstPreemption(t, cfg, eager, now)
			if v.state != statePending || v.process != nil || b.c.res.Kills != 1 {
				t.Fatalf("eager %v: task %v holds %v after %d kills", eager, v.state, v.process, b.c.res.Kills)
			}
			if !eager && !bytes.Equal(sentinel, bytes.Repeat([]byte{0xA5}, len(sentinel))) {
				t.Error("the never-built task's kill drew the listed array")
			}
			if got := proc.GetSpace(pages); !eager && &got[0] != &sentinel[0] {
				t.Error("the never-built task's kill listed an array")
			}
			waste[i] = b.c.res.WastedCPUHours
		}
		if waste[0] != waste[1] || waste[0] == 0 {
			t.Errorf("the never-built task was charged %v core-hours, the eager one %v", waste[0], waste[1])
		}
	})
}
