package sim

import "math"

// heapEngine is the engine as it was before the radix heap, kept as the
// reference FuzzEventQueue holds Engine to: an indexed binary min-heap
// ordered by (at, seq), an eager Cancel that takes the timer out of the
// heap, and the same clock rules. Every event gets a record, handle or not,
// which nothing outside the engine can observe.
type heapEngine struct {
	now   Time
	queue []*heapTimer
	seq   uint64
}

type heapTimer struct {
	at      Time
	seq     uint64
	ev      Event
	index   int // position in the heap, -1 once removed
	stopped bool
}

func (e *heapEngine) ScheduleAt(at Time, ev Event) *heapTimer {
	if at < e.now {
		panic(ErrPast)
	}
	t := &heapTimer{at: at, seq: e.seq, ev: ev}
	e.seq++
	t.index = len(e.queue)
	e.queue = append(e.queue, t)
	e.siftUp(t.index)
	return t
}

func (e *heapEngine) At(at Time, ev Event) { e.ScheduleAt(at, ev) }

func (e *heapEngine) Cancel(t *heapTimer) {
	if !t.stopped {
		t.stopped = true
		e.remove(t.index)
	}
}

func (e *heapEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	t := e.queue[0]
	e.remove(0)
	t.stopped = true
	e.now = t.at
	t.ev.Fire(e.now)
	return true
}

func (e *heapEngine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if deadline != Time(math.MaxInt64) && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *heapEngine) Now() Time    { return e.now }
func (e *heapEngine) Pending() int { return len(e.queue) }

// before is the strict (at, seq) ordering.
func before(a, b *heapTimer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove deletes the timer at heap position i.
func (e *heapEngine) remove(i int) {
	h := e.queue
	n := len(h) - 1
	t := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	e.queue = h[:n]
	if i < n && !e.siftUp(i) {
		e.siftDown(i)
	}
	t.index = -1
}

// siftUp restores the heap invariant upward from i, reporting whether the
// element moved.
func (e *heapEngine) siftUp(i int) bool {
	h := e.queue
	t := h[i]
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !before(t, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
		moved = true
	}
	h[i] = t
	t.index = i
	return moved
}

// siftDown restores the heap invariant downward from i.
func (e *heapEngine) siftDown(i int) {
	h := e.queue
	t := h[i]
	for {
		kid := 2*i + 1
		if kid >= len(h) {
			break
		}
		if r := kid + 1; r < len(h) && before(h[r], h[kid]) {
			kid = r
		}
		if !before(h[kid], t) {
			break
		}
		h[i] = h[kid]
		h[i].index = i
		i = kid
	}
	h[i] = t
	t.index = i
}
