package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-scale (base 2) upper bounds in
// seconds, from 1µs to ~38h, plus one overflow bucket. Every histogram
// in the registry shares this layout, so snapshots from different sources
// (dump latency on one node, DFS block writes on another) merge by adding
// bucket counts — no per-histogram configuration to reconcile.
const (
	histFirstBound   = 1e-6
	histFiniteBounds = 38
	// HistBuckets is the bucket count including the overflow bucket.
	HistBuckets = histFiniteBounds + 1
)

var histBounds = func() [histFiniteBounds]float64 {
	var b [histFiniteBounds]float64
	v := histFirstBound
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}()

// BucketBounds returns the shared finite bucket upper bounds, in seconds.
// The final (overflow) bucket is unbounded.
func BucketBounds() []float64 {
	out := make([]float64, histFiniteBounds)
	copy(out[:], histBounds[:])
	return out
}

// bucketIndex returns the bucket for observation v: the first bucket whose
// upper bound is >= v, or the overflow bucket.
func bucketIndex(v float64) int {
	if v <= histBounds[0] {
		return 0
	}
	if v > histBounds[histFiniteBounds-1] {
		return histFiniteBounds
	}
	// exp such that v <= histFirstBound * 2^exp; log2 is exact for the
	// power-of-two bounds so boundary values land in their own bucket.
	i := int(math.Ceil(math.Log2(v / histFirstBound)))
	if i < 0 {
		i = 0
	}
	// Guard against float fuzz right at a boundary.
	for i > 0 && v <= histBounds[i-1] {
		i--
	}
	for i < histFiniteBounds && v > histBounds[i] {
		i++
	}
	return i
}

// hist is one live histogram. All mutation happens under mu.
type hist struct {
	mu      sync.Mutex
	buckets [HistBuckets]uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

func (h *hist) observe(v float64) {
	h.mu.Lock()
	h.buckets[bucketIndex(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

func (h *hist) snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: append([]uint64(nil), h.buckets[:]...),
	}
}

// HistSnapshot is an immutable copy of a histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []uint64 `json:"buckets"`
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts,
// interpolating linearly inside the target bucket. The overflow bucket
// and q >= 1 report the exact tracked maximum.
func (h HistSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max
	}
	if q < 0 {
		q = 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= histFiniteBounds {
			return h.Max
		}
		lo := 0.0
		if i > 0 {
			lo = histBounds[i-1]
		}
		hi := histBounds[i]
		// Clamp the bucket to the observed range so single-bucket
		// histograms report real values, not bucket edges.
		if lo < h.Min {
			lo = h.Min
		}
		if hi > h.Max {
			hi = h.Max
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.Max
}

// Merge returns the bucket-wise sum of two snapshots sharing the global
// layout (e.g. folding block-read and block-write latencies into one
// "transfer" distribution).
func (h HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if h.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return h
	}
	out := HistSnapshot{
		Count:   h.Count + o.Count,
		Sum:     h.Sum + o.Sum,
		Min:     math.Min(h.Min, o.Min),
		Max:     math.Max(h.Max, o.Max),
		Buckets: make([]uint64, HistBuckets),
	}
	for i := range out.Buckets {
		if i < len(h.Buckets) {
			out.Buckets[i] += h.Buckets[i]
		}
		if i < len(o.Buckets) {
			out.Buckets[i] += o.Buckets[i]
		}
	}
	return out
}

// Snapshot is a point-in-time copy of a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Counter returns a counter's value (0 when absent), tolerating calls on
// a zero-value Snapshot.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Hist returns a histogram snapshot (zero-valued when absent).
func (s Snapshot) Hist(name string) HistSnapshot { return s.Histograms[name] }

// Registry is a concurrency-safe registry of named counters, gauges, and
// histograms: the one live store of a run's numbers. Metrics are created on
// first touch; names are free-form dotted paths ("yarn.dump.total.seconds")
// sanitized only at exposition time. Every value lives in its own slot
// behind a handle (Counter, Gauge, Histogram), so mu guards the three name
// maps and never a value. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Uint64 // float64 bits
	hists    map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Int64),
		gauges:   make(map[string]*atomic.Uint64),
		hists:    make(map[string]*hist),
	}
}

// slot returns name's slot in m, one of r's maps, creating it at its zero
// value if needed. The pointer stays valid for the registry's lifetime.
func slot[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := m[name]
	if v == nil {
		v = new(T)
		m[name] = v
	}
	return v
}

// Counter is a pre-resolved counter handle: the name is looked up once at
// Registry.Counter time, and every Inc/Add after that is a single atomic
// add with no map access or lock. The zero value — including any handle
// taken from a nil registry — is a valid no-op sink, mirroring the nil
// *Registry contract.
type Counter struct{ v *atomic.Int64 }

// Inc adds 1 through the handle.
func (c Counter) Inc() { c.Add(1) }

// Add adds delta through the handle.
func (c Counter) Add(delta int64) {
	if c.v != nil {
		c.v.Add(delta)
	}
}

// Value reads the counter through the handle; zero for a no-op handle.
func (c Counter) Value() int64 {
	if c.v == nil {
		return 0
	}
	return c.v.Load()
}

// Counter pre-resolves a counter handle for hot paths that would
// otherwise pay a name lookup per increment.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	return Counter{v: slot(r, r.counters, name)}
}

// CounterValue reads name's counter without creating it: zero when nothing
// has counted under name, and the registry gains no series.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.counters[name]; v != nil {
		return v.Load()
	}
	return 0
}

// Gauge is a pre-resolved gauge handle: one float64 in an atomic slot. Like
// Counter, the zero value is a no-op sink.
type Gauge struct{ v *atomic.Uint64 }

// Set stores v.
func (g Gauge) Set(v float64) {
	if g.v != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Add accumulates delta. Adds from one goroutine land in call order, so a
// serial stream of addends sums bit for bit as a plain += would.
func (g Gauge) Add(delta float64) { g.update(func(v float64) float64 { return v + delta }) }

// Max raises the gauge to v if v exceeds its current value — a high-water
// mark (e.g. peak per-node checkpoint-queue backlog). A slot starts at zero,
// not absent, so a mark that only sees negative values reads zero; every
// caller records non-negative seconds.
func (g Gauge) Max(v float64) { g.update(func(cur float64) float64 { return max(cur, v) }) }

// update replaces the gauge's value v with f(v), retrying if a writer raced.
func (g Gauge) update(f func(float64) float64) {
	if g.v == nil {
		return
	}
	for {
		old := g.v.Load()
		if g.v.CompareAndSwap(old, math.Float64bits(f(math.Float64frombits(old)))) {
			return
		}
	}
}

// Value reads the gauge through the handle; zero for a no-op handle.
func (g Gauge) Value() float64 {
	if g.v == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Gauge pre-resolves a gauge handle.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	return Gauge{v: slot(r, r.gauges, name)}
}

// Histogram is a pre-resolved histogram handle; like Counter, the zero
// value is a no-op sink and recording skips the registry's name map.
type Histogram struct{ h *hist }

// Observe records v through the handle.
func (h Histogram) Observe(v float64) {
	if h.h != nil {
		h.h.observe(v)
	}
}

// ObserveDuration records a duration, in seconds, through the handle.
func (h Histogram) ObserveDuration(d time.Duration) {
	if h.h != nil {
		h.h.observe(d.Seconds())
	}
}

// Snapshot copies the histogram through the handle — one histogram, where
// Registry.Snapshot copies them all; empty for a no-op handle.
func (h Histogram) Snapshot() HistSnapshot {
	if h.h == nil {
		return HistSnapshot{}
	}
	return h.h.snapshot()
}

// Histogram pre-resolves a histogram handle.
func (r *Registry) Histogram(name string) Histogram {
	if r == nil {
		return Histogram{}
	}
	return Histogram{h: slot(r, r.hists, name)}
}

// Inc adds 1 to a counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to a counter.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// SetGauge sets a gauge to v.
func (r *Registry) SetGauge(name string, v float64) { r.Gauge(name).Set(v) }

// Observe records v (in seconds for latency metrics) into a histogram.
func (r *Registry) Observe(name string, v float64) { r.Histogram(name).Observe(v) }

// ObserveDuration records a duration, in seconds, into a histogram.
func (r *Registry) ObserveDuration(name string, d time.Duration) { r.Observe(name, d.Seconds()) }

// Snapshot copies every metric. It is safe to call concurrently with
// recording.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for k, v := range r.counters {
		snap.Counters[k] = v.Load()
	}
	for k, v := range r.gauges {
		snap.Gauges[k] = math.Float64frombits(v.Load())
	}
	for k, h := range r.hists {
		snap.Histograms[k] = h.snapshot()
	}
	r.mu.Unlock()
	return snap
}
