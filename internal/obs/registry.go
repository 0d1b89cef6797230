package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"preemptsched/internal/metrics"
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

// Names returns the sorted union of all metric names, handy for stable
// iteration in reports and tests.
func (s Snapshot) Names() []string {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Registry is a concurrency-safe registry of named counters, gauges, and
// histograms. Metrics are created on first touch; names are free-form
// dotted paths ("yarn.dump.total.seconds") sanitized only at exposition
// time. A nil *Registry is a valid no-op sink.
type Registry struct {
	counters *metrics.Counters

	mu     sync.Mutex
	gauges map[string]float64
	hists  map[string]*hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: metrics.NewCounters(),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*hist),
	}
}

// Counter is a pre-resolved counter handle: the name is looked up once at
// Registry.Counter time, and every Inc/Add after that is a single atomic
// add with no map access or lock. The zero value — including any handle
// taken from a nil registry — is a valid no-op sink, mirroring the nil
// *Registry contract.
type Counter struct{ v *atomic.Int64 }

// Inc adds 1 through the handle.
func (c Counter) Inc() {
	if c.v != nil {
		c.v.Add(1)
	}
}

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
	return Counter{v: r.counters.Handle(name)}
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
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &hist{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return Histogram{h: h}
}

// Inc adds 1 to a counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to a counter.
func (r *Registry) Add(name string, delta int64) { r.Counter(name).Add(delta) }

// AddN merges a batch of counter increments under one lock acquisition.
func (r *Registry) AddN(deltas map[string]int64) {
	if r == nil {
		return
	}
	r.counters.AddN(deltas)
}

// SetGauge sets a gauge to v.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// MaxGauge raises a gauge to v if v exceeds its current value — a
// high-water mark (e.g. peak per-node checkpoint-queue backlog).
func (r *Registry) MaxGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

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
	snap := Snapshot{
		Counters:   r.counters.Snapshot(),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	r.mu.Lock()
	for k, v := range r.gauges {
		snap.Gauges[k] = v
	}
	names := make([]string, 0, len(r.hists))
	hs := make([]*hist, 0, len(r.hists))
	for k, h := range r.hists {
		names = append(names, k)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	for i, h := range hs {
		snap.Histograms[names[i]] = h.snapshot()
	}
	return snap
}
