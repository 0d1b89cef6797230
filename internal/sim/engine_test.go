package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []time.Duration
	for _, d := range []time.Duration{5, 1, 3, 2, 4} {
		d := d * time.Second
		e.Schedule(d, Handler(func(now Time) { got = append(got, now) }))
	}
	e.Run()
	want := []time.Duration{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w*time.Second {
			t.Errorf("event %d fired at %v, want %v", i, got[i], w*time.Second)
		}
	}
}

func TestEngineStableOrderAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.Schedule(time.Second, Handler(func(Time) { got = append(got, i) }))
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events reordered: got %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.Schedule(time.Second, Handler(func(Time) { fired = true }))
	e.Cancel(tm)
	e.Run()
	if fired {
		t.Error("cancelled timer fired")
	}
	if !tm.stopped {
		t.Error("cancelled timer not marked stopped")
	}
	e.Cancel(tm) // double-cancel must be a no-op

	// A handle that has fired is stopped too, and cancelling it leaves the
	// live count alone.
	done := e.ScheduleAt(e.Now()+time.Second, Handler(func(Time) {}))
	e.ScheduleAt(e.Now()+2*time.Second, Handler(func(Time) {}))
	e.Step()
	if !done.stopped {
		t.Error("fired timer not marked stopped")
	}
	e.Cancel(done)
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d after cancelling a fired timer, want 1", e.Pending())
	}
}

func TestEngineCancelFromHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Timer
	victim = e.Schedule(2*time.Second, Handler(func(Time) { fired = true }))
	e.Schedule(time.Second, Handler(func(Time) { e.Cancel(victim) }))
	e.Run()
	if fired {
		t.Error("timer cancelled from an earlier handler still fired")
	}
}

func TestEngineScheduleFromHandler(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(time.Second, Handler(func(now Time) {
		e.Schedule(3*time.Second, Handler(func(n Time) { at = n }))
	}))
	e.Run()
	if at != 4*time.Second {
		t.Errorf("chained event fired at %v, want 4s", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, Handler(func(Time) { count++ }))
	}
	e.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("fired %d events before deadline, want 5", count)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("clock at %v, want 5s", e.Now())
	}
	if e.Pending() != 5 {
		t.Errorf("pending %d, want 5", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Errorf("fired %d total, want 10", count)
	}
}

func TestEngineRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, Handler(func(Time) {}))
	e.RunUntil(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Errorf("clock at %v, want deadline 10s", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, Handler(func(Time) {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(time.Second, Handler(func(Time) {}))
}

// Every scheduling call refuses a nil event where it is made, not later
// inside Run: a nil Event, and a nil Handler, which as an Event is not nil.
func TestEnginePanicsOnNilHandler(t *testing.T) {
	var nilHandler Handler
	calls := map[string]func(e *Engine){
		"ScheduleAt(nil Event)":   func(e *Engine) { e.ScheduleAt(time.Second, nil) },
		"ScheduleAt(nil Handler)": func(e *Engine) { e.ScheduleAt(time.Second, nilHandler) },
		"Schedule(nil Event)":     func(e *Engine) { e.Schedule(time.Second, nil) },
		"Schedule(nil Handler)":   func(e *Engine) { e.Schedule(time.Second, nilHandler) },
		"At(nil Event)":           func(e *Engine) { e.At(time.Second, nil) },
		"At(nil Handler)":         func(e *Engine) { e.At(time.Second, nilHandler) },
		"After(nil Handler)":      func(e *Engine) { e.After(time.Second, nilHandler) },
		"After(nil)":              func(e *Engine) { e.After(time.Second, nil) },
	}
	for name, call := range calls {
		e := NewEngine()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call(e)
		}()
		if e.Pending() != 0 {
			t.Errorf("%s left %d events pending", name, e.Pending())
		}
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, Handler(func(Time) {}))
	e.Step()
	fired := false
	e.Schedule(-5*time.Second, Handler(func(now Time) { fired = now == time.Second }))
	e.Run()
	if !fired {
		t.Error("negative delay should fire immediately at current time")
	}
}

// TestEngineDelaySaturatesAtEndOfClock: a delay that would wrap the int64
// clock lands on its last instant, through Schedule and After alike, instead
// of panicking as an event in the past (at the parent commit both panic:
// now=150 years plus 150 years is negative).
func TestEngineDelaySaturatesAtEndOfClock(t *testing.T) {
	const long = 150 * 365 * 24 * time.Hour
	e := NewEngine()
	e.Schedule(long, Handler(func(Time) {}))
	e.Step()
	var fired []Time
	timer := e.Schedule(long, Handler(func(now Time) { fired = append(fired, now) }))
	e.After(long, func(now Time) { fired = append(fired, now) })
	e.After(time.Hour, func(now Time) { fired = append(fired, now) })
	if timer.At() != Time(math.MaxInt64) {
		t.Fatalf("wrapping delay scheduled for %v, want the end of the clock", timer.At())
	}
	end := e.Run()
	want := []Time{long + time.Hour, Time(math.MaxInt64), Time(math.MaxInt64)}
	if end != Time(math.MaxInt64) || !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired at %v, run ended at %v; want %v", fired, end, want)
	}
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, Handler(func(Time) {}))
	}
	e.Run()
	if e.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any multiset of delays, the engine fires them in
// non-decreasing time order and the clock never moves backwards.
func TestEngineMonotonicClockProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delaysMs {
			e.Schedule(time.Duration(d)*time.Millisecond, Handler(func(now Time) {
				if now < last {
					ok = false
				}
				last = now
			}))
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset of timers fires exactly the
// complement.
func TestEngineCancelSubsetProperty(t *testing.T) {
	f := func(delaysMs []uint16, cancelMask []bool) bool {
		e := NewEngine()
		fired := make([]bool, len(delaysMs))
		timers := make([]*Timer, len(delaysMs))
		for i, d := range delaysMs {
			i := i
			timers[i] = e.Schedule(time.Duration(d)*time.Millisecond, Handler(func(Time) { fired[i] = true }))
		}
		for i := range timers {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(timers[i])
			}
		}
		e.Run()
		for i := range timers {
			cancelled := i < len(cancelMask) && cancelMask[i]
			if fired[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
}

func TestRNGBounded(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := r.Bounded(3, 5)
		if v < 3 || v >= 5 {
			t.Fatalf("Bounded(3,5) = %v out of range", v)
		}
	}
	if got := r.Bounded(5, 3); got != 5 {
		t.Errorf("degenerate Bounded(5,3) = %v, want lo", got)
	}
}

func TestRNGPareto(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Pareto(1.0, 1.5, 100.0)
		if v < 1.0 || v > 100.0 {
			t.Fatalf("Pareto out of [xm, max]: %v", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(3)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if mean < 9.5 || mean > 10.5 {
		t.Errorf("Exp(10) sample mean %v too far from 10", mean)
	}
}
