package obs

import "sync"

// SLOTracker is the retired live SLO engine, kept as the test-only
// reference Registry.SLO is held to: one mutex-guarded struct of its own
// accumulators and histograms, fed event by event. TestSLOViewMatchesTracker
// drives one stream through both and requires equal snapshots, floats bit
// for bit.
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

// NewSLOTracker returns a tracker with the standard band set pre-created.
func NewSLOTracker() *SLOTracker {
	t := &SLOTracker{resp: make(map[string]*hist, len(sloBands))}
	for _, b := range sloBands {
		t.resp[b] = &hist{}
	}
	return t
}

func (t *SLOTracker) AddWaste(coreHours float64) {
	t.mu.Lock()
	t.waste += coreHours
	t.mu.Unlock()
}

func (t *SLOTracker) AddFailureWaste(coreHours float64) {
	t.mu.Lock()
	t.waste += coreHours
	t.wasteFailure += coreHours
	t.mu.Unlock()
}

func (t *SLOTracker) AddUseful(coreHours float64) {
	t.mu.Lock()
	t.useful += coreHours
	t.mu.Unlock()
}

func (t *SLOTracker) Count(ev Event) {
	t.mu.Lock()
	switch {
	case ev.Kind == EvDecision && ev.Name == "kill":
		t.kills++
	case ev.Kind == EvDecision:
		t.checkpoints++
	case ev.Kind == EvKillFallback:
		t.fallbackKills++
	}
	t.mu.Unlock()
}

func (t *SLOTracker) ObserveResponse(band string, seconds float64) {
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

func (t *SLOTracker) Snapshot() SLOSnapshot {
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
