package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineChurn measures raw event throughput: schedule-and-fire
// chains, the pattern every simulation layer stresses.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var tick Handler
	tick = func(now Time) {
		if remaining == 0 {
			return
		}
		remaining--
		e.Schedule(time.Microsecond, tick)
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(e.Fired()), "events")
}

// BenchmarkEngineHeap measures scheduling N future events and draining
// them — the event queue's push/pop cost.
func BenchmarkEngineHeap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := NewEngine()
		rng := NewRNG(int64(i))
		b.StartTimer()
		for j := 0; j < 10_000; j++ {
			e.Schedule(time.Duration(rng.Intn(1_000_000))*time.Microsecond, Handler(func(Time) {}))
		}
		e.Run()
	}
}

// BenchmarkEngineCancel measures timer cancellation, the path preemption
// exercises when it cancels completion timers.
func BenchmarkEngineCancel(b *testing.B) {
	e := NewEngine()
	timers := make([]*Timer, 0, b.N)
	for i := 0; i < b.N; i++ {
		timers = append(timers, e.Schedule(time.Duration(i+1)*time.Microsecond, Handler(func(Time) {})))
	}
	b.ResetTimer()
	for _, t := range timers {
		e.Cancel(t)
	}
}

// BenchmarkEngineChurnAfter is BenchmarkEngineChurn on the no-handle
// After path: the queue holds the handler itself, so steady-state churn
// allocates nothing.
func BenchmarkEngineChurnAfter(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var tick Handler
	tick = func(now Time) {
		if remaining == 0 {
			return
		}
		remaining--
		e.After(time.Microsecond, tick)
	}
	e.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
