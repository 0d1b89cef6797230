package sim

import (
	"testing"
	"time"
)

// engineBatch is how many events one iteration of BenchmarkEngineChurn
// fires and of BenchmarkEngineCancel cancels. CI times every benchmark at
// -benchtime=1x: one event would time a single microsecond operation, and
// a batch that runs for under a millisecond still reads the occasional
// half-millisecond stall of a shared machine as a regression.
const engineBatch = 100_000

// BenchmarkEngineChurn measures raw event throughput: schedule-and-fire
// chains, the pattern every simulation layer stresses.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	remaining := b.N*engineBatch - 1
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
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events")
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
// exercises when it cancels completion timers. It cancels from queues of
// 10,000 timers, scheduled untimed, until it has cancelled engineBatch.
func BenchmarkEngineCancel(b *testing.B) {
	timers := make([]*Timer, 10_000)
	b.StopTimer()
	for i := 0; i < b.N*engineBatch/len(timers); i++ {
		e := NewEngine()
		for j := range timers {
			timers[j] = e.Schedule(time.Duration(j+1)*time.Microsecond, Handler(func(Time) {}))
		}
		b.StartTimer()
		for _, t := range timers {
			e.Cancel(t)
		}
		b.StopTimer()
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
