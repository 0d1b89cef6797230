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
// still points at a timer.
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
			if x.t != nil {
				t.Fatal("a free chunk still holds a timer")
			}
		}
	}
}

// item is one pushed timer with its push index, the seq the retired heap
// ordered ties by.
type item struct {
	at  Time
	seq int
	t   *Timer
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
				x := item{at, op, &Timer{}}
				q.push(at, x.t)
				model = append(model, x)
			} else {
				var want item
				want, model = popMin(model)
				at, got := q.pop(Time(math.MaxInt64))
				if got != want.t || at != want.at {
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
				x := item{Time(rng.Intn(32)), op, &Timer{}}
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
			for got.stopped {
				at, got = q.pop(Time(math.MaxInt64))
			}
			if got != want.t || at != want.at {
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
	record := func(now Time) { fired = append(fired, now) }
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
	record := func(now Time) { fired = append(fired, now) }
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
		ts = append(ts, e.ScheduleAt(Time(i), func(Time) {}))
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
	e.ScheduleAt(time.Second, func(Time) { fired = true })
	for i := 0; i < 100_000; i++ {
		e.Cancel(e.ScheduleAt(time.Hour+Time(i), func(Time) {}))
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
	scheduleAt func(Time, Handler) (cancel func())
	at         func(Time, Handler)
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
		scheduleAt: func(at Time, fn Handler) func() {
			t := e.ScheduleAt(at, fn)
			return func() { e.Cancel(t) }
		},
		at: e.At, step: e.Step, runUntil: e.RunUntil, now: e.Now, pending: e.Pending,
	}
}

func heapSide(e *heapEngine) *fuzzSide {
	return &fuzzSide{
		scheduleAt: func(at Time, fn Handler) func() {
			t := e.ScheduleAt(at, fn)
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

// handler returns an event that logs (seq, now) when it fires and, when
// child is set, schedules a no-handle follow-up delay later.
func (s *fuzzSide) handler(child bool, delay Time) Handler {
	seq := s.seq
	s.seq++
	return func(now Time) {
		s.fired = append(s.fired, [2]int64{seq, int64(now)})
		if child {
			s.at(later(now, delay), s.handler(false, 0))
		}
	}
}

// apply performs one decoded op.
func (s *fuzzSide) apply(op, arg byte) {
	d := fuzzDelay(arg)
	switch op % 7 {
	case 0: // a cancellable event
		s.cancels = append(s.cancels, s.scheduleAt(later(s.now(), d), s.handler(false, 0)))
	case 1: // a no-handle event
		s.at(later(s.now(), d), s.handler(false, 0))
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
		s.cancels = append(s.cancels, s.scheduleAt(later(s.now(), d), s.handler(true, fuzzDelay(op>>3))))
	}
}

// FuzzEventQueue holds Engine to the binary-heap engine it replaced, over
// one stream of ScheduleAt/At/Cancel/Step/RunUntil/Run calls and events
// that schedule from inside their handlers: after every call both sides
// must have fired the same (seq, at) sequence and agree on Now and Pending.
func FuzzEventQueue(f *testing.F) {
	// ScheduleAt(10) → RunUntil(5) → ScheduleAt(6) → Run: 6 fires first.
	f.Add([]byte{0, 10, 4, 5, 0, 1, 5, 0})
	// ScheduleAt(100), cancelled → Run → ScheduleAt(101) → ScheduleAt(3) →
	// Run: 3 fires first.
	f.Add([]byte{0, 100, 2, 0, 5, 0, 0, 101, 0, 3, 5, 0})
	// Ties at one instant, far keys, follow-ups and a cancel mid-run.
	f.Add([]byte{6, 5, 6, 5, 1, 5, 0, 5, 0, 200, 3, 0, 2, 1, 0xfe, 9, 4, 3, 2, 4, 5, 0})
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

// isZero reports whether a timer record has been wiped back to the zero
// value (Handler is not comparable, so field-by-field).
func isZero(tm *Timer) bool {
	return tm.at == 0 && tm.fn == nil && !tm.stopped && !tm.pooled
}

// queuedTimers returns every timer in the queue, bucket by bucket.
func queuedTimers(q *eventQueue) []*Timer {
	var out []*Timer
	for b := range q.buckets {
		for _, x := range queued(q.buckets[b]) {
			out = append(out, x.t)
		}
	}
	return out
}

// TestPooledRecordsZeroedOnRelease: a fired At record lands on the free
// list fully zeroed, so the pool can never resurrect a stale handler.
func TestPooledRecordsZeroedOnRelease(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(5, func(now Time) { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("fired %d events", fired)
	}
	if len(e.free) != 1 {
		t.Fatalf("free list has %d records, want 1", len(e.free))
	}
	if !isZero(e.free[0]) {
		t.Fatalf("released record not zeroed: %+v", *e.free[0])
	}
}

// TestPooledRecordsNotReusedWhilePending: concurrently pending At events
// always occupy distinct records, and no queued record is ever also on
// the free list.
func TestPooledRecordsNotReusedWhilePending(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.At(Time(10+i), func(now Time) {})
	}
	if len(e.free) != 0 {
		t.Fatalf("free list non-empty with all events pending: %d", len(e.free))
	}
	seen := map[*Timer]bool{}
	for _, tm := range queuedTimers(&e.queue) {
		if seen[tm] {
			t.Fatal("two queue slots share one record")
		}
		seen[tm] = true
	}
	// Fire one event; its record must be recycled by the next At, and the
	// handler must still observe its own scheduled time.
	e.Step()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d records after one firing, want 1", len(e.free))
	}
	recycled := e.free[0]
	if !isZero(recycled) {
		t.Fatalf("free record not zeroed: %+v", *recycled)
	}
	var gotAt Time
	e.At(40, func(now Time) { gotAt = now })
	if len(e.free) != 0 {
		t.Fatal("At did not take the free record")
	}
	found := false
	for _, tm := range queuedTimers(&e.queue) {
		if tm == recycled {
			found = true
			if tm.at != 40 || tm.fn == nil || !tm.pooled {
				t.Fatalf("recycled record misfilled: %+v", *tm)
			}
		}
	}
	if !found {
		t.Fatal("recycled record not back in the queue")
	}
	e.Run()
	if gotAt != 40 {
		t.Fatalf("recycled event fired at %v, want 40", gotAt)
	}
}

// TestHandleTimersStayOutOfPool: ScheduleAt records can be cancelled
// through their handle at any point, so they must never enter the free
// list — fired or cancelled.
func TestHandleTimersStayOutOfPool(t *testing.T) {
	e := NewEngine()
	h1 := e.ScheduleAt(1, func(now Time) {})
	h2 := e.ScheduleAt(2, func(now Time) {})
	e.Cancel(h2)
	e.Run()
	if len(e.free) != 0 {
		t.Fatalf("handle-returning timers leaked into the pool: %d", len(e.free))
	}
	if !h1.Stopped() || !h2.Stopped() {
		t.Fatal("handles not stopped after run")
	}
	// A stale Cancel on a long-dead handle must stay a no-op even after
	// pooled traffic has churned the queue.
	e.At(e.Now()+1, func(now Time) {})
	e.Cancel(h2)
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("fired %d events, want 2 (h2 was cancelled)", e.Fired())
	}
}
