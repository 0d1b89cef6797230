package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

// referenceTrySchedule is the scheduling pass as it was before the priority
// discipline walked the queue in place: every discipline snapshots its
// batch with scanBatch and visits all of it. visited is told after each
// visit what the pass has done so far; it observes and changes nothing.
func referenceTrySchedule(s *Simulator, now sim.Time, visited func(t *taskRT, placed bool, failed []cluster.Resources)) {
	failed := s.failedScratch[:0]
	for _, t := range s.scanBatch() {
		placed := false
		if !dominatesAny(t.spec.Demand, failed) {
			placed = s.place(t, now)
			if !placed && len(failed) < 8 {
				failed = append(failed, t.spec.Demand)
			}
		}
		if placed {
			visited(t, true, failed)
			continue
		}
		feasible := s.cfg.Discipline != DisciplinePriority || s.anyRunningBelow(t.spec.Priority)
		if t.reservedOn == nil && s.cfg.Policy != core.PolicyWait &&
			feasible && s.preemptFor(t, now) {
			placed = s.place(t, now)
		}
		visited(t, placed, failed)
	}
	s.failedScratch = failed[:0]
}

// passCoverage counts what the traces made the stop rule do.
type passCoverage struct {
	// stops counts priority passes that end before their window does.
	stops int
	// refused counts visits after which nothing ran below the waiter (or
	// the policy never preempts) but no failed demand was covered by the
	// floor, so the pass went on.
	refused int
	// victimsBehindTail counts passes in which a kill victim joined a level
	// that the pass walked up to its recorded tail.
	victimsBehindTail int
}

// observerFunc adapts a function to obs.Observer.
type observerFunc func(obs.Event)

func (f observerFunc) Observe(ev obs.Event) { f(ev) }

// edge names an event the way the tests compare streams: a verdict by its
// action, any other edge by its kind.
func edge(ev obs.Event) string {
	if ev.Kind == obs.EvDecision {
		return ev.Name
	}
	return ev.Kind.String()
}

// passRun is everything a run shows the world, plus what each pass examined.
type passRun struct {
	res      *Result
	events   []string
	journal  []byte
	examined []string
}

// runPasses drives jobs under cfg to the end, with the reference pass when
// cov is non-nil and with trySchedule otherwise. For the reference it
// records, per pass, the prefix of the batch that the stop rule predicts
// the in-place walk examines, and checks that nothing happens past it.
func runPasses(t *testing.T, cfg Config, jobs []cluster.JobSpec, cov *passCoverage) passRun {
	t.Helper()
	var run passRun
	// kills lists the tasks the pass under way has killed.
	var kills []cluster.TaskID
	rec := obs.NewRecorder(1<<20, 64)
	cfg.Observer = observerFunc(func(ev obs.Event) {
		run.events = append(run.events, fmt.Sprintf("%v %v %v %v", ev.At, edge(ev), ev.Task, ev.Node))
		if ev.Kind == obs.EvDecision && ev.Name == "kill" {
			kills = append(kills, ev.Task)
		}
		rec.Observe(ev)
	})
	s, all := loaded(t, cfg, jobs)
	tasks := make(map[cluster.TaskID]*taskRT, len(all))
	for _, w := range all {
		tasks[w.spec.ID] = w
	}
	if cov == nil {
		pass := s.runPass
		s.runPass = func(now sim.Time) {
			pass(now)
			run.examined = append(run.examined, ids(s.batchScratch))
		}
	} else {
		s.runPass = func(now sim.Time) {
			s.schedulePending = false
			tails, mask := s.queue.tail, s.queue.mask
			kills = kills[:0]
			stopped, stopDecisions := -1, uint64(0)
			visits := 0
			referenceTrySchedule(s, now, func(w *taskRT, placed bool, failed []cluster.Resources) {
				visits++
				if stopped >= 0 {
					if placed || s.res.Decisions != stopDecisions {
						t.Fatalf("at %v: waiter %v, visited after the stop rule fired, placed or preempted", now, w.spec.ID)
					}
					return
				}
				if s.cfg.Discipline != DisciplinePriority || placed ||
					(s.cfg.Policy != core.PolicyWait && s.anyRunningBelow(w.spec.Priority)) {
					return
				}
				if dominatesAny(s.queue.floorUpTo(w.spec.Priority), failed) {
					stopped, stopDecisions = visits, s.res.Decisions
				} else {
					cov.refused++
				}
			})
			batch := s.batchScratch
			if stopped >= 0 {
				if stopped < len(batch) {
					cov.stops++
				}
				batch = batch[:stopped]
			}
			run.examined = append(run.examined, ids(batch))
			for _, id := range kills {
				p := tasks[id].spec.Priority
				if s.cfg.Discipline == DisciplinePriority && mask&(1<<uint(p)) != 0 && slices.Contains(batch, tails[p]) {
					cov.victimsBehindTail++
					break
				}
			}
		}
	}
	run.res = s.runToEnd()
	if rec.Dropped() != 0 {
		t.Fatalf("the recorder dropped %d records", rec.Dropped())
	}
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	run.journal = buf.Bytes()
	return run
}

// requireSamePasses runs jobs under cfg with the reference pass and with
// trySchedule and requires the same event stream, the same journal bytes
// and the same Result, and that every pass of trySchedule examined exactly
// the waiters the reference predicts.
func requireSamePasses(t *testing.T, cfg Config, jobs []cluster.JobSpec, cov *passCoverage) {
	t.Helper()
	want := runPasses(t, cfg, jobs, cov)
	got := runPasses(t, cfg, jobs, nil)
	if i := firstDifference(got.events, want.events); i >= 0 {
		t.Fatalf("event %d of %d: %s, reference %s", i, len(want.events), at(got.events, i), at(want.events, i))
	}
	if !bytes.Equal(got.journal, want.journal) {
		t.Fatalf("journals differ: %d bytes, reference %d", len(got.journal), len(want.journal))
	}
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("results differ:\n%+v\nreference:\n%+v", got.res.Outcome, want.res.Outcome)
	}
	if len(got.examined) != len(want.examined) {
		t.Fatalf("%d passes, reference %d", len(got.examined), len(want.examined))
	}
	for i := range want.examined {
		if got.examined[i] != want.examined[i] {
			t.Fatalf("pass %d examined %v, the stop rule predicts %v", i, got.examined[i], want.examined[i])
		}
	}
}

func firstDifference(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(ss []string, i int) string {
	if i < len(ss) {
		return ss[i]
	}
	return "(none)"
}

// passCase is one seeded run: a generated trace on a small cluster.
type passCase struct {
	discipline Discipline
	policy     core.Policy
	failure    bool
	seed       int64
	jobs       int
	nodes      int
	// coarse rounds every demand to one of four shapes — 1 or 2 cores by
	// 2 or 4 GiB — so that demands repeat and a failed one often covers
	// every demand queued below it.
	coarse bool
}

func (c passCase) String() string {
	return fmt.Sprintf("%v/%v/failure=%v/seed=%d/jobs=%d/nodes=%d/coarse=%v", c.discipline, c.policy, c.failure, c.seed, c.jobs, c.nodes, c.coarse)
}

func (c passCase) build(t testing.TB) (Config, []cluster.JobSpec) {
	t.Helper()
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: c.seed, Jobs: c.jobs, MeanTasksPerJob: 4, Span: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if c.coarse {
		for j := range jobs {
			for k := range jobs[j].Tasks {
				task := &jobs[j].Tasks[k]
				d := &task.Demand
				d.CPUMillis = cluster.Cores(float64(1 + d.CPUMillis/cluster.Cores(1.25)))
				d.MemBytes = cluster.GiB(float64(2 + 2*(d.MemBytes/cluster.GiB(2.25))))
				// Rounding can take the demand below the footprint, which
				// no task may exceed.
				task.MemFootprint = min(task.MemFootprint, d.MemBytes)
			}
		}
	}
	cfg := DefaultConfig(c.policy, storage.SSD)
	cfg.Discipline = c.discipline
	cfg.Nodes = c.nodes
	if c.failure {
		cfg.NodeFailures = []NodeFailure{{Node: c.nodes / 2, At: 12 * time.Minute, RecoverAfter: 5 * time.Minute}}
	}
	return cfg, jobs
}

var passPolicies = []core.Policy{core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive, core.PolicyWait}

// GIVEN seeded traces whose jobs demand different shapes of CPU and memory,
// under each discipline and each policy, with and without a node failing
// and recovering mid-run,
// WHEN each runs once with the snapshot pass every discipline used to take
// and once with trySchedule,
// THEN the event streams, the journals and the Results are identical, every
// priority pass examines exactly the prefix of the old batch that ends at
// the first waiter the stop rule names, and the old pass does nothing
// after that waiter; and the traces make the rule stop passes, refuse to
// stop for want of a covering floor, and kill a victim into a level the
// pass walked to its recorded tail.
func TestSchedulingPassMatchesReference(t *testing.T) {
	var cov passCoverage
	for _, discipline := range []Discipline{DisciplinePriority, DisciplineFairShare, DisciplineCapacity} {
		for _, policy := range passPolicies {
			for _, failure := range []bool{false, true} {
				for _, coarse := range []bool{false, true} {
					c := passCase{discipline, policy, failure, 5, 60, 3, coarse}
					t.Run(c.String(), func(t *testing.T) {
						cfg, jobs := c.build(t)
						requireSamePasses(t, cfg, jobs, &cov)
					})
				}
			}
		}
	}
	if cov.stops < 1000 || cov.refused < 1000 || cov.victimsBehindTail < 100 {
		t.Errorf("traces too tame: %+v", cov)
	}
}

// GIVEN any small trace the fuzzer derives — seed, size, cluster, discipline,
// policy, a failure or not, demands as generated or coarse —
// WHEN it runs with the reference pass and with trySchedule,
// THEN the two runs are indistinguishable, as above.
func FuzzSchedulingPass(f *testing.F) {
	for _, seed := range [][]byte{{5, 60, 3, 0, 0, 2}, {7, 40, 2, 0, 0, 1}, {11, 30, 1, 1, 2, 2}, {13, 50, 4, 2, 3, 3}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &queueStream{data}
		c := passCase{
			seed:  int64(s.next()),
			jobs:  1 + int(s.next())%64,
			nodes: 1 + int(s.next())%4,
		}
		c.discipline = []Discipline{DisciplinePriority, DisciplineFairShare, DisciplineCapacity}[s.next()%3]
		c.policy = passPolicies[s.next()%byte(len(passPolicies))]
		flags := s.next()
		c.failure, c.coarse = flags&1 != 0, flags&2 != 0
		cfg, jobs := c.build(t)
		requireSamePasses(t, cfg, jobs, new(passCoverage))
	})
}

// GIVEN the priority discipline with kills, node 0 full of one-core
// priority-0 tasks, node 1 with one core free, a two-core priority-0 waiter
// already queued and a two-core priority-10 task arriving,
// WHEN the arrival's pass kills two of node 0's tasks to make room for it,
// THEN that pass places neither victim on node 1's free core, although the
// walk reaches priority 0 after the kills: both joined the level behind the
// tail it recorded. The next pass places one of them there.
func TestKillVictimWaitsBehindRecordedTail(t *testing.T) {
	task := func(id cluster.JobID, prio cluster.Priority, cores float64, submit time.Duration) cluster.JobSpec {
		return userJob(id, "", prio, submit, 10*time.Hour, cores)
	}
	var jobs []cluster.JobSpec
	for i := 0; i < 7; i++ {
		jobs = append(jobs, task(cluster.JobID(i), 0, 1, 0))
	}
	jobs = append(jobs, task(7, 0, 2, 0), task(8, 10, 2, time.Minute))
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Nodes = 2
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(4), MemBytes: cluster.GiB(32)}
	var (
		passes [][]string
		events []string
	)
	cfg.Observer = observerFunc(func(ev obs.Event) { events = append(events, fmt.Sprintf("%v %v node %v", edge(ev), ev.Task, ev.Node)) })
	s, _ := loaded(t, cfg, jobs)
	afterEachPass(s, func(now sim.Time) {
		if now > 0 {
			passes = append(passes, events)
		}
		events = nil
	})
	s.engine.RunUntil(sim.Time(time.Minute))

	if len(passes) != 2 {
		t.Fatalf("%d passes ran at the arrival, want the arrival's and the one its kills asked for: %v", len(passes), passes)
	}
	if want := []string{"victim-selection 8/0 node 0", "kill 0/0 node 0", "kill 1/0 node 0", "place 8/0 node 0"}; !slices.Equal(passes[0], want) {
		t.Errorf("the arrival's pass did %v, want %v", passes[0], want)
	}
	if want := []string{"place 0/0 node 1"}; !slices.Equal(passes[1], want) {
		t.Errorf("the next pass did %v, want %v", passes[1], want)
	}
}
