package obs

import (
	"sort"
	"sync"
)

// SLOTracker is the live SLO engine: incremental, O(1)-per-event
// tracking of the paper's headline objectives — waste core-hours
// (Fig. 9), per-band job response time (Fig. 10/11), and the checkpoint
// hit-rate of the preemption policy — maintained as events happen
// instead of recomputed from end-of-run snapshot scans. A nil
// *SLOTracker is a valid no-op sink.
type SLOTracker struct {
	mu            sync.Mutex
	waste         float64
	wasteFailure  float64
	useful        float64
	kills         int64
	checkpoints   int64
	fallbackKills int64
	resp          map[string]*hist
}

// sloBands mirrors cluster.Band.String(): the paper's three priority
// bands plus the cross-band aggregate.
var sloBands = []string{"all", "low", "medium", "high"}

// NewSLOTracker returns a tracker with the standard band set
// pre-created, so snapshots always carry the same keys.
func NewSLOTracker() *SLOTracker {
	t := &SLOTracker{resp: make(map[string]*hist, len(sloBands))}
	for _, b := range sloBands {
		t.resp[b] = &hist{}
	}
	return t
}

// AddWaste accrues wasted core-hours (lost progress, checkpoint
// overhead, failed restores).
func (t *SLOTracker) AddWaste(coreHours float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.waste += coreHours
	t.mu.Unlock()
}

// AddFailureWaste accrues wasted core-hours attributable to a node
// failure (progress lost with a dead machine). It lands in the same
// waste total AddWaste feeds, plus the failure-attributed bucket, so
// the split always sums to the total.
func (t *SLOTracker) AddFailureWaste(coreHours float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.waste += coreHours
	t.wasteFailure += coreHours
	t.mu.Unlock()
}

// AddUseful accrues useful core-hours (completed task runtime).
func (t *SLOTracker) AddUseful(coreHours float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.useful += coreHours
	t.mu.Unlock()
}

// CountDecision tallies one Alg. 1 preemption decision.
func (t *SLOTracker) CountDecision(checkpoint bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if checkpoint {
		t.checkpoints++
	} else {
		t.kills++
	}
	t.mu.Unlock()
}

// CountFallbackKill tallies a checkpoint decision that degraded to a
// kill (failed dump or unrecoverable restore).
func (t *SLOTracker) CountFallbackKill() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fallbackKills++
	t.mu.Unlock()
}

// ObserveResponse records one job's response time (submit→complete,
// seconds) under its priority band and the "all" aggregate.
func (t *SLOTracker) ObserveResponse(band string, seconds float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	h := t.resp[band]
	if h == nil {
		h = &hist{}
		t.resp[band] = h
	}
	all := t.resp["all"]
	t.mu.Unlock()
	h.observe(seconds)
	if all != h {
		all.observe(seconds)
	}
}

// SLOResponse summarizes one band's response-time distribution.
type SLOResponse struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SLOSnapshot is a point-in-time copy of the tracked objectives; it is
// what the /slo ops endpoint and the report's schema-v3 `slo` object
// serialize.
type SLOSnapshot struct {
	WasteCoreHours float64 `json:"waste_core_hours"`
	// WasteFailureCoreHours and WastePreemptionCoreHours split
	// WasteCoreHours by blame: node failures versus everything the
	// scheduler did (preemption overhead, kills, failed restores).
	WasteFailureCoreHours    float64                `json:"waste_failure_core_hours"`
	WastePreemptionCoreHours float64                `json:"waste_preemption_core_hours"`
	UsefulCoreHours          float64                `json:"useful_core_hours"`
	WasteFraction            float64                `json:"waste_fraction"`
	KillDecisions            int64                  `json:"kill_decisions"`
	CheckpointDecisions      int64                  `json:"checkpoint_decisions"`
	FallbackKills            int64                  `json:"fallback_kills"`
	CheckpointHitRate        float64                `json:"checkpoint_hit_rate"`
	Response                 map[string]SLOResponse `json:"response_seconds"`
}

func histToResponse(h *hist) SLOResponse {
	h.mu.Lock()
	s := HistSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: append([]uint64(nil), h.buckets[:]...),
	}
	h.mu.Unlock()
	out := SLOResponse{Count: int64(s.Count), Max: s.Max}
	if s.Count > 0 {
		out.Mean = s.Sum / float64(s.Count)
		out.P50 = s.Quantile(0.50)
		out.P95 = s.Quantile(0.95)
		out.P99 = s.Quantile(0.99)
	}
	return out
}

// Snapshot copies every objective. Safe to call concurrently with
// recording.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{Response: map[string]SLOResponse{}}
	}
	t.mu.Lock()
	snap := SLOSnapshot{
		WasteCoreHours:           t.waste,
		WasteFailureCoreHours:    t.wasteFailure,
		WastePreemptionCoreHours: t.waste - t.wasteFailure,
		UsefulCoreHours:          t.useful,
		KillDecisions:            t.kills,
		CheckpointDecisions:      t.checkpoints,
		FallbackKills:            t.fallbackKills,
		Response:                 make(map[string]SLOResponse, len(t.resp)),
	}
	hs := make(map[string]*hist, len(t.resp))
	for band, h := range t.resp {
		hs[band] = h
	}
	t.mu.Unlock()
	if total := snap.WasteCoreHours + snap.UsefulCoreHours; total > 0 {
		snap.WasteFraction = snap.WasteCoreHours / total
	}
	if decisions := snap.KillDecisions + snap.CheckpointDecisions; decisions > 0 {
		snap.CheckpointHitRate = float64(snap.CheckpointDecisions) / float64(decisions)
	}
	for band, h := range hs {
		snap.Response[band] = histToResponse(h)
	}
	return snap
}

// PublishGauges mirrors the current snapshot into reg as gauges, so the
// SLOs ride the existing Prometheus/JSON exposition alongside the raw
// counters. Intended to be called from a sampler loop (clusterd) or
// once at end of run.
func (t *SLOTracker) PublishGauges(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	s := t.Snapshot()
	reg.SetGauge("slo.waste.core.hours", s.WasteCoreHours)
	reg.SetGauge("slo.waste.failure.core.hours", s.WasteFailureCoreHours)
	reg.SetGauge("slo.useful.core.hours", s.UsefulCoreHours)
	reg.SetGauge("slo.waste.fraction", s.WasteFraction)
	reg.SetGauge("slo.decisions.kill", float64(s.KillDecisions))
	reg.SetGauge("slo.decisions.checkpoint", float64(s.CheckpointDecisions))
	reg.SetGauge("slo.kills.fallback", float64(s.FallbackKills))
	reg.SetGauge("slo.checkpoint.hit.rate", s.CheckpointHitRate)
	bands := make([]string, 0, len(s.Response))
	for b := range s.Response {
		bands = append(bands, b)
	}
	sort.Strings(bands)
	for _, b := range bands {
		r := s.Response[b]
		reg.SetGauge("slo.response."+b+".count", float64(r.Count))
		reg.SetGauge("slo.response."+b+".p50.seconds", r.P50)
		reg.SetGauge("slo.response."+b+".p95.seconds", r.P95)
		reg.SetGauge("slo.response."+b+".p99.seconds", r.P99)
	}
}
