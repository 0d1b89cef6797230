package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

// listed walks every FIFO of q from the highest priority down, checks what
// the links and the books must agree on — a level's floor included, which
// is no larger than any demand waiting there and zero once the level is
// empty — and returns the waiters in queue order without going through
// window.
func listed(t testing.TB, q *pendingQueue) []*taskRT {
	t.Helper()
	var out []*taskRT
	for p := len(q.head) - 1; p >= 0; p-- {
		if (q.head[p] == nil) != (q.tail[p] == nil) || (q.head[p] != nil) != (q.mask&(1<<uint(p)) != 0) {
			t.Fatalf("priority %d: head %p, tail %p, mask %012b", p, q.head[p], q.tail[p], q.mask)
		}
		var prev *taskRT
		for w := q.head[p]; w != nil; prev, w = w, w.qnext {
			if w.qprev != prev || int(w.spec.Priority) != p {
				t.Fatalf("priority %d: task %v (priority %d) links back to %p, follows %p", p, w.spec.ID, w.spec.Priority, w.qprev, prev)
			}
			if prev != nil && w.queuedAt < prev.queuedAt {
				t.Fatalf("priority %d: task %v queued at %v follows one queued at %v", p, w.spec.ID, w.queuedAt, prev.queuedAt)
			}
			if !q.floor[p].Fits(w.spec.Demand) {
				t.Fatalf("priority %d: floor %v is not below task %v's demand %v", p, q.floor[p], w.spec.ID, w.spec.Demand)
			}
			out = append(out, w)
		}
		if q.head[p] == nil && q.floor[p] != (cluster.Resources{}) {
			t.Fatalf("priority %d: empty, floor %v", p, q.floor[p])
		}
		if prev != q.tail[p] {
			t.Fatalf("priority %d: list ends at %p, tail is %p", p, prev, q.tail[p])
		}
	}
	if len(out) != q.n {
		t.Fatalf("lists hold %d waiters, n is %d", len(out), q.n)
	}
	return out
}

// queueStream decodes bytes into queue operations; a spent stream reads
// zeros.
type queueStream struct{ b []byte }

func (s *queueStream) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// queueCoverage counts what streams made the two queues do.
type queueCoverage struct {
	passes, placed, truncated, returned, samePassKills, midPassArrivals int
}

// requireSameQueue applies one decoded stream to a pendingQueue and to the
// heap it replaced. Per operation, first byte mod 4:
//
//	0  the clock advances by the next byte
//	1  a new task of priority (next byte b mod 12) is enqueued; its demand
//	   is b/12 millicores by b mod 5 bytes, so the levels' floors move
//	2  a task that left the queue earlier comes back (a vacated dump, a
//	   fenced task): idle[next byte mod len]
//	3  a pass over the first (next byte mod 80) waiters, one byte c per
//	   waiter: c&1 places it (it leaves the queue); c&2 enqueues a task
//	   before the pass moves on — with c&4 the task this pass placed last
//	   (a kill victim), otherwise a new one as if b were c>>3
func requireSameQueue(t *testing.T, data []byte, cov *queueCoverage) {
	var (
		q    pendingQueue
		ref  referenceQueue
		now  sim.Time
		all  []*taskRT
		idle []*taskRT
	)
	fresh := func(prio byte) *taskRT {
		w := &taskRT{spec: &cluster.TaskSpec{
			ID:       cluster.TaskID{Job: cluster.JobID(len(all))},
			Priority: cluster.Priority(int(prio) % len(q.head)),
			Demand:   cluster.Resources{CPUMillis: int64(prio / 12), MemBytes: int64(prio % 5)},
		}}
		all = append(all, w)
		return w
	}
	enqueue := func(w *taskRT) {
		w.queuedAt = now
		q.push(w)
		ref.enqueue(w)
	}
	for s := (&queueStream{data}); len(s.b) > 0; {
		switch s.next() % 4 {
		case 0:
			now += sim.Time(s.next())
		case 1:
			enqueue(fresh(s.next()))
		case 2:
			if i := int(s.next()); len(idle) > 0 {
				i %= len(idle)
				enqueue(idle[i])
				idle = slices.Delete(idle, i, i+1)
				cov.returned++
			}
		case 3:
			k := int(s.next()) % 80
			window := q.window(nil, k)
			var popped []referenceEntry
			for len(ref.heap) > 0 && len(popped) < k {
				popped = append(popped, ref.pop())
			}
			if len(window) != len(popped) {
				t.Fatalf("pass of %d over %d waiters: window of %d, heap popped %d", k, q.n, len(window), len(popped))
			}
			cov.passes++
			if len(window) < q.n {
				cov.truncated++
			}
			var skipped []referenceEntry
			placedHere := 0
			for i, e := range popped {
				if window[i] != e.t {
					t.Fatalf("pass of %d: window[%d] is task %v, heap popped task %v", k, i, window[i].spec.ID, e.t.spec.ID)
				}
				c := s.next()
				if c&1 != 0 {
					q.remove(e.t)
					idle = append(idle, e.t)
					placedHere++
					cov.placed++
				} else {
					skipped = append(skipped, e)
				}
				switch {
				case c&6 == 6 && placedHere > 0:
					last := len(idle) - 1
					enqueue(idle[last])
					idle = idle[:last]
					placedHere--
					cov.samePassKills++
				case c&2 != 0:
					enqueue(fresh(c >> 3))
					cov.midPassArrivals++
				}
			}
			// The heap gets the waiters the pass left back, under their
			// old seq, only once the pass is over.
			for _, e := range skipped {
				ref.push(e)
			}
		}
		listed(t, &q)
		if q.n != len(ref.heap) || (q.mask == 0) != (len(ref.heap) == 0) {
			t.Fatalf("queue holds %d (mask %012b), heap holds %d", q.n, q.mask, len(ref.heap))
		}
	}
	// Drained, the two hand out one total order and are empty together.
	for i, w := range q.window(nil, q.n) {
		if e := ref.pop(); e.t != w {
			t.Fatalf("drain: waiter %d is task %v, heap popped task %v", i, w.spec.ID, e.t.spec.ID)
		}
		q.remove(w)
	}
	if q != (pendingQueue{}) || len(ref.heap) != 0 {
		t.Fatalf("drained queue is %+v, heap holds %d", q, len(ref.heap))
	}
	for _, w := range all {
		if w.qprev != nil || w.qnext != nil {
			t.Fatalf("task %v is in no queue and still linked", w.spec.ID)
		}
	}
}

func queueSeeds() [][]byte {
	seeds := [][]byte{
		// Priorities 5, 9, 5 arrive; a pass over all three places the
		// second it sees (the older 5) and leaves the rest.
		{1, 5, 1, 9, 1, 5, 3, 3, 0, 1, 0},
		// Four 7s and a 2 arrive at one instant; the pass places the first
		// two, then — while looking at the third — kills the second again,
		// which must queue up behind the fourth without this pass meeting it.
		{1, 7, 1, 7, 1, 7, 1, 7, 1, 2, 3, 5, 1, 1, 6, 0, 0, 3, 5, 0, 0, 0, 0},
		// Six waiters, passes of two: the window is cut short, the clock
		// moves, a placed 11 comes back behind a later arrival of its priority.
		{1, 3, 1, 3, 1, 11, 1, 0, 1, 3, 1, 11, 3, 2, 1, 0, 0, 9, 2, 0, 1, 3, 3, 2, 0, 0, 3, 6, 1, 0, 1, 0, 0, 1},
		// Passes over nothing — an empty queue, a window of zero — and one
		// asking for far more than is there.
		{3, 9, 1, 4, 3, 0, 3, 79, 1},
		// Arrivals in the middle of a pass, above and below the waiter in hand.
		{1, 6, 1, 6, 1, 1, 3, 3, 2 | 11<<3, 1 | 2 | 0<<3, 2 | 6<<3, 3, 9, 0, 0, 0, 0, 0, 0},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8; i++ {
		s := make([]byte, 2048)
		rng.Read(s)
		seeds = append(seeds, s)
	}
	return seeds
}

// GIVEN a pendingQueue and the heap it replaced, both empty,
// WHEN one stream — tasks of any priority enqueued at non-decreasing
// instants, passes that take the first k waiters, place any subset of them
// and have tasks (new ones, old ones, the pass's own placements) enqueued
// while they run — is applied to both,
// THEN every pass sees the same window, pointer for pointer, the two hold
// the same number of waiters after every operation, are empty together, and
// drain in the same order; the lists' links and books agree throughout.
func FuzzPendingQueue(f *testing.F) {
	for _, s := range queueSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { requireSameQueue(t, data, new(queueCoverage)) })
}

// The seed streams cover what the contract names; fuzzing only widens it.
func TestQueueSeedsReachEveryOperation(t *testing.T) {
	var sum queueCoverage
	for _, seed := range queueSeeds() {
		requireSameQueue(t, seed, &sum)
	}
	if sum.passes < 100 || sum.placed < 100 || sum.truncated < 100 || sum.returned < 100 ||
		sum.samePassKills < 100 || sum.midPassArrivals < 100 {
		t.Errorf("seed streams are too tame: %+v", sum)
	}
}

// GIVEN a priority's FIFO whose tail was queued at instant 10,
// WHEN a task of that priority stamped with instant 9 is pushed,
// THEN push panics and names both tasks; the same stamp on another
// priority's list, and an equal stamp on this one, are in order.
func TestPushPanicsOnATimestampFromThePast(t *testing.T) {
	task := func(job cluster.JobID, prio cluster.Priority, at sim.Time) *taskRT {
		return &taskRT{spec: &cluster.TaskSpec{ID: cluster.TaskID{Job: job}, Priority: prio}, queuedAt: at}
	}
	var q pendingQueue
	q.push(task(1, 4, 10))
	q.push(task(2, 4, 10))
	q.push(task(3, 7, 9))
	listed(t, &q)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "task 4/0 queued at") || !strings.Contains(msg, "behind task 2/0") {
			t.Fatalf("push of a task queued before its list's tail: recovered %q", msg)
		}
	}()
	q.push(task(4, 4, 9))
}

// There is one taskRT per task and 144 bytes is an allocator size class: a
// word more and every task costs 160.
func TestTaskRTStaysInItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(taskRT{}); size > 144 {
		t.Errorf("taskRT is %d bytes, want at most 144", size)
	}
}

// GIVEN a full cluster — most nodes held by top-priority work, the last by
// a task that is no victim — and more blocked waiters of every priority than
// one pass scans, all of one priority asking for 1 core and the same 1, 2 or
// 3 GiB,
// WHEN a pass runs,
// THEN it examines exactly the waiters the stop rule predicts, decides
// nothing, allocates nothing, and leaves the queue's heads, tails, mask,
// count and every waiter's links exactly as they were. With the last node's
// task at priority 3 and mid pre-copy, preemption stays thinkable for every
// waiter the window reaches, and the pass examines its whole window of
// scanLimit. With it at the top priority too, nothing runs below any waiter,
// and the pass stops at the first waiter of priority 9: its failed 1 GiB
// demand is covered by every demand queued at 9 and below.
func TestBlockedPassTouchesNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lastPrio cluster.Priority
		// examined is how many waiters, in queue order, the pass examines.
		examined func(byPrio map[cluster.Priority]int) int
	}{
		{"window", 3, func(map[cluster.Priority]int) int { return scanLimit }},
		{"stop", cluster.MaxPriority, func(byPrio map[cluster.Priority]int) int { return byPrio[11] + byPrio[10] + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(core.PolicyCheckpoint, storage.SSD)
			cfg.Nodes = 4
			s, err := newSimulator(cfg.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			now := sim.Time(time.Hour)
			task := func(job int, prio cluster.Priority, demand cluster.Resources) *taskRT {
				spec := &cluster.TaskSpec{
					ID: cluster.TaskID{Job: cluster.JobID(job)}, Priority: prio, Demand: demand,
					Duration: time.Hour, MemFootprint: cluster.GiB(1),
				}
				return &taskRT{spec: spec, job: newJobRT(&cluster.JobSpec{ID: spec.ID.Job}, s), remaining: spec.Duration}
			}
			for i, n := range s.nodes {
				r := task(i, cluster.MaxPriority, cfg.NodeCapacity)
				if i == len(s.nodes)-1 && tc.lastPrio < cluster.MaxPriority {
					r.spec.Priority = tc.lastPrio
					r.preCopying = true
				}
				s.seat(r, n, now)
				r.phase = phaseRunning
				r.attemptStart = now
				s.markRunning(r)
			}
			waiters := make([]*taskRT, 2*scanLimit)
			byPrio := make(map[cluster.Priority]int)
			for i := range waiters {
				waiters[i] = task(100+i, cluster.Priority(i%(int(cluster.MaxPriority)+1)),
					cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(float64(1 + i%3))})
				s.enqueue(waiters[i], now)
				byPrio[waiters[i].spec.Priority]++
			}
			links := func() [][2]*taskRT {
				out := make([][2]*taskRT, len(waiters))
				for i, w := range waiters {
					out[i] = [2]*taskRT{w.qprev, w.qnext}
				}
				return out
			}
			queueBefore, linksBefore := s.queue, links()
			want := listed(t, &s.queue)[:tc.examined(byPrio)]

			s.trySchedule(now)
			if !slices.Equal(s.batchScratch, want) {
				t.Fatalf("the pass examined %v, want %v", ids(s.batchScratch), ids(want))
			}
			if allocs := testing.AllocsPerRun(50, func() { s.trySchedule(now) }); allocs != 0 {
				t.Errorf("a pass over %d blocked waiters allocated %v times, want 0", len(want), allocs)
			}
			if s.res.Decisions != 0 || s.res.Preemptions != 0 {
				t.Errorf("blocked passes made %d decisions and %d preemptions", s.res.Decisions, s.res.Preemptions)
			}
			if s.queue != queueBefore || !slices.Equal(links(), linksBefore) {
				t.Error("blocked passes rewrote the queue")
			}
			if got := listed(t, &s.queue); len(got) != len(waiters) {
				t.Errorf("%d waiters queued after the passes, want %d", len(got), len(waiters))
			}
		})
	}
}

// loaded is Run up to the moment the engine starts: a simulator with every
// submission and node failure scheduled. It also returns the taskRTs, which
// Run itself keeps only in its slab and the submission events.
func loaded(t *testing.T, cfg Config, jobs []cluster.JobSpec) (*Simulator, []*taskRT) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := newSimulator(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	slab, err := s.load(jobs)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]*taskRT, len(slab))
	for i := range slab {
		tasks[i] = &slab[i]
	}
	return s, tasks
}

// afterEachPass wraps the simulator's pass handler so check runs when each
// pass returns.
func afterEachPass(s *Simulator, check func(now sim.Time)) {
	pass := s.runPass
	s.runPass = func(now sim.Time) {
		pass(now)
		check(now)
	}
}

// GIVEN fair share with kills on one four-core node, and at one instant
// four one-core tasks of user ada ahead of one of user bob in the queue,
// WHEN the first pass places ada's four, finds no room for bob's, and
// kills one of the four it has just placed to make it,
// THEN that pass examined the victim once — before it was a victim — and
// left it queued exactly once; the next pass is the first to see it as a
// waiter, and the run ends with all five tasks done.
func TestSamePassKillVictimWaitsForNextPass(t *testing.T) {
	var jobs []cluster.JobSpec
	for i := 0; i < 4; i++ {
		jobs = append(jobs, userJob(cluster.JobID(i), "ada", 5, 0, 10*time.Minute, 1))
	}
	jobs = append(jobs, userJob(9, "bob", 1, 0, 10*time.Minute, 1))
	cfg := DefaultConfig(core.PolicyKill, storage.SSD)
	cfg.Discipline = DisciplineFairShare
	cfg.Nodes = 1
	cfg.NodeCapacity = cluster.Resources{CPUMillis: cluster.Cores(4), MemBytes: cluster.GiB(32)}

	type passRecord struct {
		events         []string
		batch, waiting string
	}
	var (
		passes []passRecord
		events []string
	)
	cfg.Observer = observerFunc(func(ev obs.Event) { events = append(events, fmt.Sprintf("%v %v", edge(ev), ev.Task)) })
	s, tasks := loaded(t, cfg, jobs)
	afterEachPass(s, func(sim.Time) {
		passes = append(passes, passRecord{events, ids(s.batchScratch), ids(listed(t, &s.queue))})
		events = nil
	})
	s.engine.Run()

	if len(passes) < 2 {
		t.Fatalf("%d passes ran, want the first and the one its kill asked for", len(passes))
	}
	first, second := passes[0], passes[1]
	wantEvents := []string{"place 0/0", "place 1/0", "place 2/0", "place 3/0", "victim-selection 9/0", "kill 0/0", "place 9/0"}
	if !slices.Equal(first.events, wantEvents) {
		t.Fatalf("first pass did %v, want %v", first.events, wantEvents)
	}
	const victim = "[0/0]"
	if want := "[0/0 1/0 2/0 3/0 9/0]"; first.batch != want {
		t.Errorf("first pass examined %v, want %v: the victim once, as the waiter it was when the pass began", first.batch, want)
	}
	if first.waiting != victim {
		t.Errorf("after the first pass %v wait, want the victim exactly once", first.waiting)
	}
	if second.batch != victim || len(second.events) != 0 || second.waiting != victim {
		t.Errorf("second pass examined %v, did %v and left %v waiting; want it to look at the victim and leave it", second.batch, second.events, second.waiting)
	}
	if s.res.Kills != 1 || s.res.TasksCompleted != len(tasks) {
		t.Errorf("%d kills, %d of %d tasks completed", s.res.Kills, s.res.TasksCompleted, len(tasks))
	}
}

// GIVEN a contended trace under each discipline and each preempting policy,
// with and without a node failing and recovering mid-run,
// WHEN the run is driven to its end,
// THEN after every pass the linked tasks are exactly the phaseQueued ones,
// and at the end the queue is its zero value (no head, no tail, mask 0,
// count 0), every task is done and none carries a link — and the run was
// Run's: same decisions, events and preemptions.
func TestQueueIsEmptyAndUnlinkedAfterRun(t *testing.T) {
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: 5, Jobs: 60, MeanTasksPerJob: 4, Span: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	for _, discipline := range []Discipline{DisciplinePriority, DisciplineFairShare, DisciplineCapacity} {
		for _, policy := range []core.Policy{core.PolicyKill, core.PolicyCheckpoint, core.PolicyAdaptive} {
			for _, failing := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/failure=%v", discipline, policy, failing)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(policy, storage.SSD)
					cfg.Discipline = discipline
					cfg.Nodes = 3
					if failing {
						cfg.NodeFailures = []NodeFailure{{Node: 1, At: 12 * time.Minute, RecoverAfter: 5 * time.Minute}}
					}
					want, err := Run(cfg, jobs)
					if err != nil {
						t.Fatal(err)
					}
					if want.Preemptions == 0 || (failing && want.TasksRescheduled == 0) {
						t.Fatalf("trace too tame: %d preemptions, %d tasks rescheduled", want.Preemptions, want.TasksRescheduled)
					}

					s, tasks := loaded(t, cfg, jobs)
					deepest := 0
					afterEachPass(s, func(sim.Time) {
						waiting := listed(t, &s.queue)
						queued := 0
						for _, w := range tasks {
							if w.phase == phaseQueued {
								queued++
							}
						}
						for _, w := range waiting {
							if w.phase != phaseQueued {
								t.Fatalf("task %v is linked in phase %d", w.spec.ID, w.phase)
							}
						}
						if queued != len(waiting) {
							t.Fatalf("%d tasks are queued, %d are linked", queued, len(waiting))
						}
						deepest = max(deepest, len(waiting))
					})
					s.engine.Run()

					if s.res.Decisions != want.Decisions || s.engine.Fired() != want.EventsFired || s.res.Preemptions != want.Preemptions {
						t.Fatalf("driven by hand: %d decisions, %d events, %d preemptions; Run: %d, %d, %d",
							s.res.Decisions, s.engine.Fired(), s.res.Preemptions, want.Decisions, want.EventsFired, want.Preemptions)
					}
					if deepest <= scanLimit {
						t.Fatalf("the queue never held more than %d waiters; no pass was cut at scanLimit = %d", deepest, scanLimit)
					}
					if s.queue != (pendingQueue{}) {
						t.Errorf("queue after the run: %+v", s.queue)
					}
					for _, w := range tasks {
						if w.phase != phaseDone || w.qprev != nil || w.qnext != nil {
							t.Errorf("task %v ended in phase %d with links %p, %p", w.spec.ID, w.phase, w.qprev, w.qnext)
						}
					}
				})
			}
		}
	}
}
