// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of future
// events. Events scheduled for the same instant fire in scheduling order,
// which keeps runs byte-for-byte reproducible for a given seed and
// workload. All simulator layers (trace-driven scheduler, mini-YARN
// framework, storage devices) share one engine so that cross-component
// causality is globally ordered.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual instant, expressed as an offset from the start of the
// simulation. It deliberately reuses time.Duration so that arithmetic with
// modelled latencies needs no conversions.
type Time = time.Duration

// Handler is a callback invoked when an event fires. The engine passes the
// current virtual time, which equals the time the event was scheduled for.
type Handler func(now Time)

// Timer is a handle to a scheduled event. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled timer is a no-op.
type Timer struct {
	at      Time
	seq     uint64
	fn      Handler
	index   int // position in the heap, -1 once removed
	stopped bool
	// pooled marks records allocated from the engine's free list via
	// At/After. No handle to a pooled timer ever escapes, so the engine
	// zeroes and recycles it the moment it leaves the queue.
	pooled bool
}

// At reports the virtual instant the timer is scheduled for.
func (t *Timer) At() Time { return t.at }

// Stopped reports whether the timer was cancelled or has fired.
func (t *Timer) Stopped() bool { return t.stopped }

// Engine is a discrete-event executor. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	fired   uint64
	// free recycles the records of fired no-handle timers. Its length is
	// bounded by the peak number of pending At/After events.
	free []*Timer
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far. It is useful for
// progress accounting and for asserting that simulations terminate.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events that are scheduled and not cancelled.
func (e *Engine) Pending() int { return len(e.queue) }

// ErrPast is returned by ScheduleAt when the requested instant is earlier
// than the current virtual time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ScheduleAt registers fn to run at virtual instant at. It panics if at is
// before the current time: scheduling into the past is always a logic error
// in a discrete-event program, and continuing would silently reorder
// causality.
func (e *Engine) ScheduleAt(at Time, fn Handler) *Timer {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v requested=%v", ErrPast, e.now, at))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	t := &Timer{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.queue.push(t)
	return t
}

// Schedule registers fn to run after delay d (>= 0) from the current time.
func (e *Engine) Schedule(d time.Duration, fn Handler) *Timer {
	return e.ScheduleAt(e.in(d), fn)
}

// in returns the instant d (>= 0) from now, saturated at the end of the
// clock: a delay that would wrap the int64 lands on its last instant, not in
// the past. The backstop behind whoever admits work (yarn.Horizon).
func (e *Engine) in(d time.Duration) Time {
	if at := e.now + max(d, 0); at >= e.now {
		return at
	}
	return Time(math.MaxInt64)
}

// At registers fn to run at virtual instant at without returning a
// handle. Events scheduled this way cannot be cancelled, which frees the
// engine to recycle their records the moment they fire — prefer At over
// ScheduleAt on hot paths that discard the timer.
func (e *Engine) At(at Time, fn Handler) {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v requested=%v", ErrPast, e.now, at))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	var t *Timer
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		t = &Timer{}
	}
	t.at, t.seq, t.fn, t.pooled = at, e.seq, fn, true
	e.seq++
	e.queue.push(t)
}

// After registers fn to run after delay d (>= 0) without returning a
// handle, with the same recycling freedom as At.
func (e *Engine) After(d time.Duration, fn Handler) {
	e.At(e.in(d), fn)
}

// Cancel removes a pending timer. It is safe to call for timers that have
// already fired or been cancelled.
func (e *Engine) Cancel(t *Timer) {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	if t.index >= 0 {
		e.queue.remove(t.index)
	}
}

// release recycles a pooled record once it has left the queue. The record
// is zeroed first so the pool never resurrects a stale handler closure and
// tests can assert get-returns-zeroed.
func (e *Engine) release(t *Timer) {
	if !t.pooled {
		return
	}
	*t = Timer{}
	e.free = append(e.free, t)
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		t := e.queue.pop()
		if t.stopped {
			e.release(t)
			continue
		}
		t.stopped = true
		at, fn := t.at, t.fn
		// Recycle before invoking: t is fully consumed, and fn may itself
		// schedule (and want to reuse) pooled records.
		e.release(t)
		e.now = at
		e.fired++
		fn(e.now)
		return true
	}
	return false
}

// Run fires events until the queue is empty. It returns the final virtual
// time.
func (e *Engine) Run() Time {
	return e.RunUntil(Time(math.MaxInt64))
}

// RunUntil fires events with timestamps <= deadline and then advances the
// clock to the earlier of deadline and the time of the last fired event. It
// returns the final virtual time. Events scheduled beyond the deadline stay
// queued.
func (e *Engine) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly from an event handler")
	}
	e.running = true
	defer func() { e.running = false }()
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.stopped {
			e.release(e.queue.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if deadline != Time(math.MaxInt64) && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// eventQueue is an indexed binary min-heap of timers ordered by (time,
// sequence). It is hand-specialized rather than built on container/heap:
// the (at, seq) key is a total order, so any correct heap pops events in
// exactly the same sequence, and skipping the interface-dispatch
// Less/Swap round trips roughly halves the per-event queue cost (see
// BenchmarkEngine* deltas in DESIGN.md §16).
type eventQueue []*Timer

// before is the strict (at, seq) ordering.
func before(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(t *Timer) {
	h := *q
	t.index = len(h)
	h = append(h, t)
	*q = h
	h.siftUp(t.index)
}

func (q *eventQueue) pop() *Timer {
	h := *q
	t := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	h = h[:n]
	*q = h
	if n > 1 {
		h.siftDown(0)
	}
	t.index = -1
	return t
}

// remove deletes the timer at heap position i (Cancel's path).
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	h = h[:n]
	*q = h
	if i < n {
		if !h.siftUp(i) {
			h.siftDown(i)
		}
	}
	t.index = -1
}

// siftUp restores the heap invariant upward from i, reporting whether the
// element moved.
func (q eventQueue) siftUp(i int) bool {
	t := q[i]
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !before(t, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = i
		i = parent
		moved = true
	}
	q[i] = t
	t.index = i
	return moved
}

// siftDown restores the heap invariant downward from i.
func (q eventQueue) siftDown(i int) {
	t := q[i]
	n := len(q)
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && before(q[r], q[kid]) {
			kid = r
		}
		if !before(q[kid], t) {
			break
		}
		q[i] = q[kid]
		q[i].index = i
		i = kid
	}
	q[i] = t
	t.index = i
}
