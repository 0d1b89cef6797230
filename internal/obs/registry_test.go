package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 5)
	r.SetGauge("g", 1)
	g := r.Gauge("g")
	g.Set(1)
	g.Add(1)
	g.Max(9)
	if g.Value() != 0 || (Gauge{}).Value() != 0 {
		t.Fatal("a no-op gauge handle reads non-zero")
	}
	r.Observe("h", 0.5)
	r.ObserveDuration("h", time.Second)
	snap := r.Snapshot()
	if snap.Counter("a") != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestBucketIndexBoundaries pins the log2 layout: an observation exactly on
// bound k lands in bucket k, and anything just above it lands in k+1.
func TestBucketIndexBoundaries(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != histFiniteBounds {
		t.Fatalf("BucketBounds len = %d, want %d", len(bounds), histFiniteBounds)
	}
	if bounds[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1e-6", bounds[0])
	}
	for k, b := range bounds {
		if got := bucketIndex(b); got != k {
			t.Errorf("bucketIndex(bound[%d]=%v) = %d, want %d", k, b, got, k)
		}
		if k < histFiniteBounds-1 {
			if got := bucketIndex(b * 1.000001); got != k+1 {
				t.Errorf("bucketIndex(just above bound[%d]) = %d, want %d", k, got, k+1)
			}
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(bounds[len(bounds)-1] * 2); got != histFiniteBounds {
		t.Errorf("overflow observation landed in bucket %d, want %d", got, histFiniteBounds)
	}
	// The top finite bound must comfortably cover day-scale makespans.
	if top := bounds[len(bounds)-1]; top < 24*3600 {
		t.Errorf("top bound %v s cannot hold a day-long run", top)
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	r := NewRegistry()
	// 100 observations spread over two decades.
	for i := 1; i <= 100; i++ {
		r.Observe("lat", float64(i)*0.001) // 1ms .. 100ms
	}
	h := r.Snapshot().Hist("lat")
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if h.Min != 0.001 || h.Max != 0.1 {
		t.Fatalf("min/max = %v/%v", h.Min, h.Max)
	}
	if math.Abs(h.Sum-5.05) > 1e-9 {
		t.Fatalf("sum = %v, want 5.05", h.Sum)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.02 || p50 > 0.09 {
		t.Fatalf("p50 = %v, want within a bucket of 0.05", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > h.Max {
		t.Fatalf("p99 = %v out of order (p50 %v, max %v)", p99, p50, h.Max)
	}
	if q := h.Quantile(1.0); q != h.Max {
		t.Fatalf("Quantile(1) = %v, want max %v", q, h.Max)
	}
	var total uint64
	for _, c := range h.Buckets {
		total += c
	}
	if total != h.Count {
		t.Fatalf("bucket sum %d != count %d", total, h.Count)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	r := NewRegistry()
	r.ObserveDuration("d", 250*time.Millisecond)
	h := r.Snapshot().Hist("d")
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0.25 {
			t.Fatalf("Quantile(%v) = %v, want exactly 0.25", q, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	r := NewRegistry()
	r.Observe("a", 0.001)
	r.Observe("a", 0.002)
	r.Observe("b", 1.0)
	snap := r.Snapshot()
	m := snap.Hist("a").Merge(snap.Hist("b"))
	if m.Count != 3 {
		t.Fatalf("merged count = %d", m.Count)
	}
	if m.Min != 0.001 || m.Max != 1.0 {
		t.Fatalf("merged min/max = %v/%v", m.Min, m.Max)
	}
	if math.Abs(m.Sum-1.003) > 1e-9 {
		t.Fatalf("merged sum = %v", m.Sum)
	}
	empty := HistSnapshot{}
	if got := empty.Merge(snap.Hist("a")); got.Count != 2 {
		t.Fatalf("empty.Merge lost data: %+v", got)
	}
	if got := snap.Hist("a").Merge(empty); got.Count != 2 {
		t.Fatalf("Merge(empty) lost data: %+v", got)
	}
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.SetGauge("depth", 3)
	r.SetGauge("depth", 1)
	r.Gauge("peak").Max(2)
	r.Gauge("peak").Max(5)
	r.Gauge("peak").Max(4)
	snap := r.Snapshot()
	if snap.Gauges["depth"] != 1 {
		t.Fatalf("SetGauge should overwrite: %v", snap.Gauges["depth"])
	}
	if snap.Gauges["peak"] != 5 {
		t.Fatalf("Gauge.Max should keep high-water mark: %v", snap.Gauges["peak"])
	}
}

// TestGaugeHandle: the handle and the name-keyed calls reach one slot; Add
// accumulates, Max keeps the high-water mark from a slot that starts at
// zero, Set overwrites.
func TestGaugeHandle(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	if v, ok := r.Snapshot().Gauges["depth"]; !ok || v != 0 {
		t.Fatalf("resolving a gauge must register it at zero, got %v (present %v)", v, ok)
	}
	g.Add(1.5)
	g.Add(2.25)
	if g.Value() != 3.75 {
		t.Fatalf("Add: %v, want 3.75", g.Value())
	}
	r.SetGauge("depth", 2)
	g.Max(1)
	if g.Value() != 2 {
		t.Fatalf("Max below the mark moved it: %v", g.Value())
	}
	r.Gauge("depth").Max(7)
	if g.Value() != 7 || r.Gauge("depth").Value() != 7 || r.Snapshot().Gauges["depth"] != 7 {
		t.Fatalf("handle, second handle and snapshot disagree: %v / %v / %v",
			g.Value(), r.Gauge("depth").Value(), r.Snapshot().Gauges["depth"])
	}
	r.Gauge("below").Max(-3)
	if v := r.Gauge("below").Value(); v != 0 {
		t.Fatalf("a mark that only saw -3 reads %v: slots start at zero", v)
	}
}

// TestGaugeConcurrent runs Add, Max and Set on three gauges from eight
// goroutines against Snapshot and Value readers; integer-valued deltas are
// exact in float64, so any lost update shows in the sum.
func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	sum, peak, last := r.Gauge("sum"), r.Gauge("peak"), r.Gauge("last")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				sum.Add(float64(1 + i%3))
				peak.Max(float64(w*2000 + i))
				last.Set(float64(w))
				if i%100 == 0 {
					snap := r.Snapshot()
					if s, p := snap.Gauges["sum"], snap.Gauges["peak"]; s != math.Trunc(s) || p != math.Trunc(p) {
						t.Errorf("torn read: sum %v, peak %v", s, p)
					}
					_ = sum.Value()
				}
			}
		}(w)
	}
	wg.Wait()
	// Per goroutine: 2000 deltas cycling 1,2,3 = 666 full cycles (3996) + 1+2.
	if want := float64(8 * (666*6 + 3)); sum.Value() != want {
		t.Fatalf("sum = %v, want %v", sum.Value(), want)
	}
	if peak.Value() != 7*2000+1999 {
		t.Fatalf("peak = %v, want %v", peak.Value(), 7*2000+1999)
	}
	if v := last.Value(); v < 0 || v > 7 || v != math.Trunc(v) {
		t.Fatalf("last = %v, want one writer's value", v)
	}
}

// TestRegistryAdd and TestRegistryConcurrentAdd are what the retired
// metrics.Counters tests checked that survives the type. A zero delta
// still registers its series: a run's report lists every counter it
// mirrors, zero or not.
func TestRegistryAdd(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 1)
	r.Add("a", 2)
	r.Add("b", 5)
	r.Add("z", 0)
	snap := r.Snapshot()
	if snap.Counter("a") != 3 || snap.Counter("b") != 5 {
		t.Fatalf("a = %d, b = %d, want 3 and 5", snap.Counter("a"), snap.Counter("b"))
	}
	if v, ok := snap.Counters["z"]; !ok || v != 0 {
		t.Fatalf("zero delta: z = %d (listed %v), want a listed 0", v, ok)
	}
}

// TestCounterValueCreatesNoSeries: reading a counter by name returns its
// value, or zero for a name nothing has counted under, and never adds a
// series to the registry, so a reader cannot change what a snapshot or an
// exposition lists. A nil registry reads zero.
func TestCounterValueCreatesNoSeries(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 4)
	if got := r.CounterValue("a"); got != 4 {
		t.Fatalf("a = %d, want 4", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Fatalf("absent = %d, want 0", got)
	}
	if snap := r.Snapshot(); len(snap.Counters) != 1 {
		t.Fatalf("snapshot counters %v, want only a", snap.Counters)
	}
	if got := (*Registry)(nil).CounterValue("a"); got != 0 {
		t.Fatalf("nil registry reads %d", got)
	}
}

func TestRegistryConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	x := r.Counter("x")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("x", 1)
				r.Add("y", 2)
				x.Inc()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counter("x") != 16000 || snap.Counter("y") != 16000 {
		t.Fatalf("x = %d, y = %d, want 16000 each", snap.Counter("x"), snap.Counter("y"))
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	r.Inc("x")
	r.Add("x", 2)
	r.Add("y", 7)
	r.SetGauge("g", 1)
	r.Observe("h", 0.1)
	snap := r.Snapshot()
	if snap.Counter("x") != 3 || snap.Counter("y") != 7 {
		t.Fatalf("counters wrong: %v", snap.Counters)
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 1 || snap.Gauges["g"] != 1 || len(snap.Histograms) != 1 || snap.Hist("h").Count != 1 {
		t.Fatalf("snapshot = %+v, want counters x and y, gauge g, histogram h", snap)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Inc("c")
				r.Observe("h", float64(i%100)*1e-4)
				r.Gauge("g").Max(float64(i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counter("c") != 8000 {
		t.Fatalf("counter = %d, want 8000", snap.Counter("c"))
	}
	if snap.Hist("h").Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", snap.Hist("h").Count)
	}
	if snap.Gauges["g"] != 999 {
		t.Fatalf("gauge = %v, want 999", snap.Gauges["g"])
	}
}
