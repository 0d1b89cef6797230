// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an ordered queue of future
// events. Events scheduled for the same instant fire in scheduling order,
// which keeps runs byte-for-byte reproducible for a given seed and
// workload. All simulator layers (trace-driven scheduler, mini-YARN
// framework, storage devices) share one engine so that cross-component
// causality is globally ordered.
//
// Because nothing may be scheduled before the clock, the queue is a
// monotone priority queue, kept as a radix heap (eventQueue): an event
// costs a few constant-time bucket moves instead of a sift through every
// pending one. Cancel is lazy: it marks the timer, and the queue drops the
// entry when it reaches it or when stopped entries outnumber live ones.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is a virtual instant, expressed as an offset from the start of the
// simulation. It deliberately reuses time.Duration so that arithmetic with
// modelled latencies needs no conversions.
type Time = time.Duration

// Event is something that happens at a virtual instant. The engine calls
// Fire with the current virtual time, which equals the instant the event was
// scheduled for.
type Event interface {
	Fire(now Time)
}

// Handler is an Event written as a callback. A func value is pointer-shaped,
// so converting one to an Event allocates nothing.
type Handler func(now Time)

// Fire calls h.
func (h Handler) Fire(now Time) { h(now) }

// Timer is a handle to a scheduled event. It can be cancelled before it
// fires; cancelling an already-fired or already-cancelled timer is a no-op.
// The queue entry's Event is the Timer itself, seen as a timerEntry, so only
// the events scheduled with a handle cost a record.
type Timer struct {
	at      Time
	ev      Event
	stopped bool
}

// At reports the virtual instant the timer is scheduled for.
func (t *Timer) At() Time { return t.at }

// timerEntry is the view of a Timer the queue holds. It is unexported, so a
// Timer cannot be handed back to the engine as an Event.
type timerEntry Timer

func (t *timerEntry) Fire(now Time) { t.ev.Fire(now) }

// Engine is a discrete-event executor. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	live    int // queued events not yet fired or cancelled
	running bool
	fired   uint64
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
func (e *Engine) Pending() int { return e.live }

// ErrPast is returned by ScheduleAt when the requested instant is earlier
// than the current virtual time.
var ErrPast = errors.New("sim: event scheduled in the past")

// ScheduleAt registers ev to fire at virtual instant at and returns a
// handle that can cancel it. It panics if at is before the current time:
// scheduling into the past is always a logic error in a discrete-event
// program, and continuing would silently reorder causality.
func (e *Engine) ScheduleAt(at Time, ev Event) *Timer {
	e.check(at, ev)
	t := &Timer{at: at, ev: ev}
	e.push(at, (*timerEntry)(t))
	return t
}

// Schedule registers ev to fire after delay d (>= 0) from the current time
// and returns a handle that can cancel it.
func (e *Engine) Schedule(d time.Duration, ev Event) *Timer {
	return e.ScheduleAt(e.in(d), ev)
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

// At registers ev to fire at virtual instant at without returning a handle.
// Events scheduled this way cannot be cancelled, so the queue holds ev itself
// and the engine allocates nothing — prefer At over ScheduleAt on hot paths
// that discard the timer.
func (e *Engine) At(at Time, ev Event) {
	e.check(at, ev)
	e.push(at, ev)
}

// After registers fn to run after delay d (>= 0) without returning a
// handle, as At does. It takes a Handler, not any Event, because the bench
// module's engine micro-op passes it a func literal, which converts to a
// Handler but not to an interface.
func (e *Engine) After(d time.Duration, fn Handler) {
	e.At(e.in(d), fn)
}

// check refuses, at the call, what could only go wrong later inside Run: an
// instant in the past or a nil event — a nil Handler included, which as an
// Event is not nil.
func (e *Engine) check(at Time, ev Event) {
	if at < e.now {
		panic(fmt.Errorf("%w: now=%v requested=%v", ErrPast, e.now, at))
	}
	switch h := ev.(type) {
	case nil:
		panic("sim: nil event")
	case Handler:
		if h == nil {
			panic("sim: nil event")
		}
	}
}

func (e *Engine) push(at Time, ev Event) {
	e.queue.push(at, ev)
	e.live++
}

// Cancel stops a pending timer. It is safe to call for timers that have
// already fired or been cancelled.
//
// The queue entry stays until Step reaches it, unless stopped entries now
// outnumber live ones and fill at least a chunk: then one sweep drops them
// all, so schedule/cancel churn keeps at most 2·Pending()+chunkLen entries
// queued. When nothing live is left the sweep also puts the queue's base
// back at the clock, so draining stopped entries never carries it past now.
func (e *Engine) Cancel(t *Timer) {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	e.live--
	if stale := e.queue.n - e.live; e.live == 0 || stale > e.live && stale >= chunkLen {
		e.queue.sweep(e.now)
	}
}

// Step fires the single earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) Step() bool {
	return e.step(Time(math.MaxInt64))
}

// step fires the earliest pending event if it is due by deadline, dropping
// the stopped entries ahead of it, and reports whether one fired.
func (e *Engine) step(deadline Time) bool {
	for e.live > 0 {
		at, ev := e.queue.pop(deadline)
		if ev == nil {
			return false
		}
		if t, ok := ev.(*timerEntry); ok {
			if t.stopped {
				continue
			}
			t.stopped = true
		}
		e.live--
		e.now = at
		if e.live == 0 && e.queue.n > 0 {
			e.queue.sweep(at)
		}
		e.fired++
		ev.Fire(at)
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
	for e.step(deadline) {
	}
	if deadline != Time(math.MaxInt64) && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// eventQueue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// 1990) of events keyed by their instant. It relies on two facts: no key is
// ever below base, the key last taken as the minimum, and base never passes
// the engine's clock, so every instant ScheduleAt accepts is a valid key.
//
// Bucket i holds the entries whose highest bit differing from base is bit
// i-1 (bucket 0: key == base). Instants are never negative, so 64 buckets
// cover every key and one word of occupancy bits finds the lowest in one
// instruction. When bucket 0 is empty, pop refills it from the lowest
// occupied bucket: base moves up to that bucket's tracked minimum and its
// entries spread into the buckets below it, so an entry moves at most once
// per bucket.
//
// Ties keep scheduling order without comparing anything: an entry's bucket
// depends only on its key and base, so equal keys always share a bucket;
// push appends, a refill moves a bucket front to back into buckets that are
// empty (every bucket below the lowest occupied one is), and a sweep keeps
// order. So every bucket, and bucket 0 in particular, is in scheduling order
// — the (at, seq) order the retired binary heap compared on.
type eventQueue struct {
	base    Time
	mask    uint64 // bit i set while bucket i holds entries
	n       int    // entries queued, stopped ones included
	buckets [64]bucket
	free    *chunk // emptied chunks, linked through next
}

// chunkLen entries of 24 bytes and a link fill a 1 KiB size class.
const chunkLen = 42

// entry carries the key beside the event, so a refill reads only chunks and
// an At event needs no record of its own.
type entry struct {
	at Time
	ev Event
}

type chunk struct {
	e    [chunkLen]entry
	next *chunk
}

// bucket is a FIFO of chunks: entries head.e[r:] through tail.e[:w], the
// least of whose keys is min.
type bucket struct {
	head, tail *chunk
	r, w       int
	min        Time
}

func (q *eventQueue) push(at Time, ev Event) {
	q.add(bits.Len64(uint64(at^q.base)), at, ev)
	q.n++
}

// add appends an entry to bucket b.
func (q *eventQueue) add(b int, at Time, ev Event) {
	k := &q.buckets[b]
	if k.tail == nil {
		c := q.chunk()
		*k = bucket{head: c, tail: c, min: at}
		q.mask |= 1 << b
	} else {
		if k.w == chunkLen {
			c := q.chunk()
			k.tail.next = c
			k.tail, k.w = c, 0
		}
		k.min = min(k.min, at)
	}
	k.tail.e[k.w] = entry{at, ev}
	k.w++
}

// pop removes and returns the earliest entry if its key is <= deadline, and
// a nil event otherwise. It refills only for an entry it is about to take:
// a refill moves base up to that entry's key, which may be later than the
// clock if the entry is not taken.
func (q *eventQueue) pop(deadline Time) (Time, Event) {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return 0, nil
		}
		b := bits.TrailingZeros64(q.mask)
		if q.buckets[b].min > deadline {
			return 0, nil
		}
		q.refill(b)
	} else if q.base > deadline {
		return 0, nil
	}
	k := &q.buckets[0]
	c := k.head
	x := c.e[k.r]
	c.e[k.r].ev = nil
	k.r++
	if c == k.tail && k.r == k.w {
		*k = bucket{}
		q.mask &^= 1
		q.put(c)
	} else if k.r == chunkLen {
		k.head, k.r = c.next, 0
		q.put(c)
	}
	q.n--
	return x.at, x.ev
}

// refill empties bucket b > 0, the lowest occupied one, into the buckets
// below it around its minimum as the new base.
func (q *eventQueue) refill(b int) {
	k := q.buckets[b]
	q.buckets[b] = bucket{}
	q.mask &^= 1 << b
	q.base = k.min
	q.drain(k, func(x entry) {
		q.add(bits.Len64(uint64(x.at^q.base)), x.at, x.ev)
	})
}

// sweep drops every cancelled timer, keeping the order of the rest. If none
// is left, base returns to now, the engine's clock.
func (q *eventQueue) sweep(now Time) {
	for m := q.mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		k := q.buckets[b]
		q.buckets[b] = bucket{}
		q.mask &^= 1 << b
		q.drain(k, func(x entry) {
			if t, ok := x.ev.(*timerEntry); ok && t.stopped {
				q.n--
			} else {
				q.add(b, x.at, x.ev)
			}
		})
	}
	if q.n == 0 {
		q.base = now
	}
}

// drain passes the entries of a detached bucket to fn in order, returning
// each chunk to the free list once read. fn may add to any bucket.
func (q *eventQueue) drain(k bucket, fn func(entry)) {
	for c, lo := k.head, k.r; c != nil; lo = 0 {
		hi := chunkLen
		if c == k.tail {
			hi = k.w
		}
		for _, x := range c.e[lo:hi] {
			fn(x)
		}
		clear(c.e[lo:hi])
		next := c.next
		q.put(c)
		c = next
	}
}

// chunk takes an empty chunk off the free list, or makes one.
func (q *eventQueue) chunk() *chunk {
	c := q.free
	if c == nil {
		return new(chunk)
	}
	q.free, c.next = c.next, nil
	return c
}

// put lists a chunk whose entries hold no events any more.
func (q *eventQueue) put(c *chunk) {
	c.next = q.free
	q.free = c
}
