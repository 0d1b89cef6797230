package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// queued returns a bucket's entries front to back.
func queued(k bucket) []entry {
	var out []entry
	for c, lo := k.head, k.r; c != nil; c, lo = c.next, 0 {
		hi := chunkLen
		if c == k.tail {
			hi = k.w
		}
		out = append(out, c.e[lo:hi]...)
	}
	return out
}

// checkQueue verifies the radix heap's invariants: each occupied bucket has
// its mask bit, holds only keys that belong there relative to base, and
// tracks their exact minimum; the entry count is right; and no free chunk
// still points at an event.
func checkQueue(t *testing.T, q *eventQueue) {
	t.Helper()
	n := 0
	for b := range q.buckets {
		k := q.buckets[b]
		occupied := q.mask&(1<<b) != 0
		if occupied != (k.head != nil) {
			t.Fatalf("bucket %d: mask bit %v, head %p", b, occupied, k.head)
		}
		if !occupied {
			continue
		}
		es := queued(k)
		if len(es) == 0 {
			t.Fatalf("bucket %d occupied but empty", b)
		}
		least := Time(math.MaxInt64)
		for _, x := range es {
			if got := bits.Len64(uint64(x.at ^ q.base)); got != b {
				t.Fatalf("key %d in bucket %d, belongs in %d (base %d)", x.at, b, got, q.base)
			}
			least = min(least, x.at)
		}
		if k.min != least {
			t.Fatalf("bucket %d tracks min %d, holds %d", b, k.min, least)
		}
		n += len(es)
	}
	if n != q.n {
		t.Fatalf("queue counts %d entries, holds %d", q.n, n)
	}
	for c := q.free; c != nil; c = c.next {
		for _, x := range c.e {
			if x.ev != nil {
				t.Fatal("a free chunk still holds an event")
			}
		}
	}
}

// item is one pushed timer with its push index, the seq the retired heap
// ordered ties by.
type item struct {
	at  Time
	seq int
	t   *timerEntry
}

// popMin removes and returns the (at, seq) minimum of a model queue.
func popMin(model []item) (item, []item) {
	best := 0
	for i, x := range model {
		if x.at < model[best].at || x.at == model[best].at && x.seq < model[best].seq {
			best = i
		}
	}
	x := model[best]
	return x, append(model[:best], model[best+1:]...)
}

// TestEventQueuePopOrderMatchesSort interleaves pushes at or after the last
// popped key with pops and compares every pop against the (at, seq) minimum
// of a model, pointer for pointer. Keys are dense so ties carry the order,
// with occasional far keys so refills span many buckets.
func TestEventQueuePopOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		var q eventQueue
		var model []item
		var last Time
		for op := 0; op < 600; op++ {
			if len(model) == 0 || rng.Intn(3) > 0 {
				at := last + Time(rng.Intn(16))
				if rng.Intn(8) == 0 {
					at += Time(1) << rng.Intn(40)
				}
				x := item{at, op, &timerEntry{}}
				q.push(at, x.t)
				model = append(model, x)
			} else {
				var want item
				want, model = popMin(model)
				at, got := q.pop(Time(math.MaxInt64))
				if got != Event(want.t) || at != want.at {
					t.Fatalf("trial %d op %d: popped (%v,%p), want (%v,%p)", trial, op, at, got, want.at, want.t)
				}
				last = at
			}
			checkQueue(t, &q)
		}
	}
}

// TestEventQueueRemoveKeepsOrder interleaves pushes with lazy removals
// (stopped timers, swept now and then) and verifies the survivors still
// drain in model order, with the stopped entries skipped.
func TestEventQueueRemoveKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		var q eventQueue
		var model []item
		for op := 0; op < 400; op++ {
			switch {
			case len(model) == 0 || rng.Intn(3) > 0:
				x := item{Time(rng.Intn(32)), op, &timerEntry{}}
				q.push(x.at, x.t)
				model = append(model, x)
			case rng.Intn(4) == 0:
				q.sweep(0)
			default:
				i := rng.Intn(len(model))
				model[i].t.stopped = true
				model = append(model[:i], model[i+1:]...)
			}
			checkQueue(t, &q)
		}
		for len(model) > 0 {
			var want item
			want, model = popMin(model)
			at, got := q.pop(Time(math.MaxInt64))
			for got.(*timerEntry).stopped {
				at, got = q.pop(Time(math.MaxInt64))
			}
			if got != Event(want.t) || at != want.at {
				t.Fatalf("trial %d: drained (%v,%p), want (%v,%p)", trial, at, got, want.at, want.t)
			}
		}
	}
}

// GIVEN an event due after a RunUntil deadline,
// WHEN the run stops at the deadline and an event between the two is added,
// THEN the new event fires first: looking at the next event must not move
// the queue's base past the clock.
func TestRunUntilKeepsTheQueueBehindTheClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := Handler(func(now Time) { fired = append(fired, now) })
	e.ScheduleAt(10*time.Second, record)
	e.RunUntil(5 * time.Second)
	e.ScheduleAt(6*time.Second, record)
	e.Run()
	if want := []Time{6 * time.Second, 10 * time.Second}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// GIVEN a queue holding only a cancelled far-future timer,
// WHEN the engine runs it dry and then schedules two earlier events,
// THEN they fire in time order: dropping stopped entries must not move the
// queue's base past the clock.
func TestDrainedCancelledTimersKeepTheQueueBehindTheClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	record := Handler(func(now Time) { fired = append(fired, now) })
	e.Cancel(e.ScheduleAt(100, record))
	e.Run()
	e.ScheduleAt(101, record)
	e.ScheduleAt(3, record)
	e.Run()
	if want := []Time{3, 101}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// Pending counts what is scheduled and not cancelled, although a cancelled
// timer's entry stays queued until it is reached or swept.
func TestPendingExcludesCancelledTimers(t *testing.T) {
	e := NewEngine()
	var ts []*Timer
	for i := 1; i <= 3; i++ {
		ts = append(ts, e.ScheduleAt(Time(i), Handler(func(Time) {})))
	}
	e.Cancel(ts[1])
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after one of three was cancelled, want 2", got)
	}
	e.Step()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after one fired, want 1", got)
	}
}

// GIVEN one live timer,
// WHEN 100,000 far-future timers are scheduled and cancelled one at a time,
// THEN the queue never holds more than 2·Pending()+chunkLen entries and
// never owns more than a few chunks: stopped entries are swept once they
// outnumber live ones.
func TestCancelChurnKeepsTheQueueBounded(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleAt(time.Second, Handler(func(Time) { fired = true }))
	for i := 0; i < 100_000; i++ {
		e.Cancel(e.ScheduleAt(time.Hour+Time(i), Handler(func(Time) {})))
		if e.queue.n > 2*e.Pending()+chunkLen {
			t.Fatalf("after %d cancels the queue holds %d entries for %d live", i+1, e.queue.n, e.Pending())
		}
	}
	chunks := 0
	for b := range e.queue.buckets {
		for c := e.queue.buckets[b].head; c != nil; c = c.next {
			chunks++
		}
	}
	for c := e.queue.free; c != nil; c = c.next {
		chunks++
	}
	if chunks > 8 {
		t.Fatalf("the queue owns %d chunks after the churn", chunks)
	}
	checkQueue(t, &e.queue)
	e.Run()
	if !fired || e.queue.n != 0 {
		t.Fatalf("live timer fired %v, %d entries left", fired, e.queue.n)
	}
}

// fuzzSide is one engine under FuzzEventQueue, reached through its methods
// so the radix-heap Engine and the retired heapEngine take one op stream.
type fuzzSide struct {
	scheduleAt func(Time, Event) (cancel func())
	at         func(Time, Event)
	step       func() bool
	runUntil   func(Time) Time
	now        func() Time
	pending    func() int

	cancels []func()
	fired   [][2]int64 // (seq, at) of each event, in firing order
	seq     int64
}

func engineSide(e *Engine) *fuzzSide {
	return &fuzzSide{
		scheduleAt: func(at Time, ev Event) func() {
			t := e.ScheduleAt(at, ev)
			return func() { e.Cancel(t) }
		},
		at: e.At, step: e.Step, runUntil: e.RunUntil, now: e.Now, pending: e.Pending,
	}
}

func heapSide(e *heapEngine) *fuzzSide {
	return &fuzzSide{
		scheduleAt: func(at Time, ev Event) func() {
			t := e.ScheduleAt(at, ev)
			return func() { e.Cancel(t) }
		},
		at: e.At, step: e.Step, runUntil: e.RunUntil, now: e.Now, pending: e.Pending,
	}
}

// fuzzDelay decodes a byte into a delay: 0–127 as is (dense, so instants
// tie), 128–255 as a power of two up to 2^62 (so keys span every bucket).
func fuzzDelay(b byte) Time {
	if b < 0x80 {
		return Time(b)
	}
	return Time(1) << (b % 63)
}

// later is now+d saturated at the end of the clock, as Engine.in does.
func later(now, d Time) Time {
	if at := now + d; at >= now {
		return at
	}
	return Time(math.MaxInt64)
}

// logEvent is an event that is not a closure: it logs (seq, now) when it
// fires and, when child is set, schedules a no-handle follow-up delay later.
type logEvent struct {
	s     *fuzzSide
	seq   int64
	child bool
	delay Time
}

func (ev *logEvent) Fire(now Time) {
	s := ev.s
	s.fired = append(s.fired, [2]int64{ev.seq, int64(now)})
	if ev.child {
		s.at(later(now, ev.delay), s.event(false, false, 0))
	}
}

// event returns the side's next event, a *logEvent or (handler set) the
// same event wrapped in a Handler closure.
func (s *fuzzSide) event(handler, child bool, delay Time) Event {
	ev := &logEvent{s: s, seq: s.seq, child: child, delay: delay}
	s.seq++
	if handler {
		return Handler(func(now Time) { ev.Fire(now) })
	}
	return ev
}

// apply performs one decoded op. Bit 3 of op picks a closure or a typed
// event for the ops that schedule one.
func (s *fuzzSide) apply(op, arg byte) {
	d := fuzzDelay(arg)
	handler := op&8 == 0
	switch op % 8 {
	case 0: // a cancellable event
		s.cancels = append(s.cancels, s.scheduleAt(later(s.now(), d), s.event(handler, false, 0)))
	case 1: // a no-handle event
		s.at(later(s.now(), d), s.event(handler, false, 0))
	case 2: // cancel a handle, fired or not
		if len(s.cancels) > 0 {
			s.cancels[int(arg)%len(s.cancels)]()
		}
	case 3:
		s.step()
	case 4:
		s.runUntil(later(s.now(), d))
	case 5:
		s.runUntil(Time(math.MaxInt64))
	case 6: // a cancellable event that schedules a follow-up when it fires
		s.cancels = append(s.cancels, s.scheduleAt(later(s.now(), d), s.event(handler, true, fuzzDelay(op>>4))))
	case 7: // a no-handle event that schedules a follow-up when it fires
		s.at(later(s.now(), d), s.event(handler, true, fuzzDelay(op>>4)))
	}
}

// FuzzEventQueue holds Engine to the binary-heap engine it replaced, over
// one stream of ScheduleAt/At/Cancel/Step/RunUntil/Run calls whose events
// are closures, typed events and handle timers, some scheduling from inside
// their own firing: after every call both sides must have fired the same
// (seq, at) sequence and agree on Now and Pending.
func FuzzEventQueue(f *testing.F) {
	// ScheduleAt(10) → RunUntil(5) → ScheduleAt(6) → Run: 6 fires first.
	f.Add([]byte{0, 10, 4, 5, 0, 1, 5, 0})
	// ScheduleAt(100), cancelled → Run → ScheduleAt(101) → ScheduleAt(3) →
	// Run: 3 fires first.
	f.Add([]byte{0, 100, 2, 0, 5, 0, 0, 101, 0, 3, 5, 0})
	// Ties at one instant, far keys, follow-ups and a cancel mid-run.
	f.Add([]byte{6, 5, 6, 5, 1, 5, 0, 5, 0, 200, 3, 0, 2, 1, 0xfe, 9, 4, 3, 2, 4, 5, 0})
	// The same with typed events and typed follow-ups, cancelled and not.
	f.Add([]byte{14, 5, 8, 5, 9, 5, 15, 5, 0, 200, 3, 0, 2, 0, 2, 1, 0xff, 9, 4, 3, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, ref := engineSide(NewEngine()), heapSide(&heapEngine{})
		for i := 0; i+1 < len(ops); i += 2 {
			a.apply(ops[i], ops[i+1])
			ref.apply(ops[i], ops[i+1])
			if !reflect.DeepEqual(a.fired, ref.fired) {
				t.Fatalf("op %d: fired (seq, at)\n%v\nreference\n%v", i/2, a.fired, ref.fired)
			}
			if a.now() != ref.now() || a.pending() != ref.pending() {
				t.Fatalf("op %d: now %v pending %d, reference now %v pending %d", i/2, a.now(), a.pending(), ref.now(), ref.pending())
			}
		}
	})
}

// GIVEN an engine whose queue has already grown its chunks,
// WHEN events are scheduled with At and After, closures and typed events
// alike, and fired with Step,
// THEN nothing is allocated: the queue entry holds the event itself, and
// only a handle (ScheduleAt, Schedule) costs a record.
func TestNoHandleEventsAllocateNothing(t *testing.T) {
	e := NewEngine()
	fired := 0
	h := Handler(func(Time) { fired++ })
	var typed logEvent
	typed.s = &fuzzSide{}
	round := func() {
		for i := 0; i < 4*chunkLen; i++ {
			e.At(e.Now()+Time(i%7), h)
			e.After(Time(i%5), h)
			e.At(e.Now()+Time(i%3), &typed)
		}
		for e.Step() {
		}
		typed.s.fired = typed.s.fired[:0]
	}
	round() // grow the chunks and the log
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("At/After plus Step allocate %.1f times a round, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		e.Schedule(1, h)
		e.Step()
	}); allocs != 1 {
		t.Fatalf("Schedule plus Step allocates %.1f times, want 1 (the handle)", allocs)
	}
}
