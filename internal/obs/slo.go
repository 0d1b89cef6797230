package obs

// SLO is the paper's headline objectives — waste core-hours (Fig. 9),
// per-band job response time (Fig. 10/11), and the checkpoint hit-rate of
// the preemption policy — as a view over ten fixed registry series. It
// holds handles and no state: recording writes the series /metrics
// exports, and Snapshot derives the ratios and percentiles from those same
// series on read, so the two can never disagree. The zero value, and the
// view of a nil registry, is a valid no-op sink.
type SLO struct {
	waste, wasteFailure, useful       Gauge
	kills, checkpoints, fallbackKills Counter
	// resp is indexed like sloBands.
	resp [len(sloBands)]Histogram
}

// sloBands mirrors cluster.Band.String(): the cross-band aggregate, then
// the paper's three priority bands.
var sloBands = [...]string{"all", "low", "medium", "high"}

// SLO resolves the view's handles, registering its series so a scraper
// sees explicit zeros from the start.
func (r *Registry) SLO() SLO {
	s := SLO{
		waste:         r.Gauge("slo.waste.core.hours"),
		wasteFailure:  r.Gauge("slo.waste.failure.core.hours"),
		useful:        r.Gauge("slo.useful.core.hours"),
		kills:         r.Counter("slo.decisions.kill"),
		checkpoints:   r.Counter("slo.decisions.checkpoint"),
		fallbackKills: r.Counter("slo.kills.fallback"),
	}
	for i, b := range sloBands {
		s.resp[i] = r.Histogram("slo.response." + b + ".seconds")
	}
	return s
}

// AddWaste accrues wasted core-hours (lost progress, checkpoint
// overhead, failed restores).
func (s SLO) AddWaste(coreHours float64) { s.waste.Add(coreHours) }

// AddFailureWaste accrues wasted core-hours attributable to a node
// failure (progress lost with a dead machine). It lands in the same
// waste total AddWaste feeds, plus the failure-attributed series, so
// the split always sums to the total.
func (s SLO) AddFailureWaste(coreHours float64) {
	s.waste.Add(coreHours)
	s.wasteFailure.Add(coreHours)
}

// AddUseful accrues useful core-hours (completed task runtime).
func (s SLO) AddUseful(coreHours float64) { s.useful.Add(coreHours) }

// CountDecision tallies one Alg. 1 preemption decision.
func (s SLO) CountDecision(checkpoint bool) {
	if checkpoint {
		s.checkpoints.Inc()
	} else {
		s.kills.Inc()
	}
}

// CountFallbackKill tallies a checkpoint decision that degraded to a
// kill (failed dump or unrecoverable restore).
func (s SLO) CountFallbackKill() { s.fallbackKills.Inc() }

// ObserveResponse records one job's response time (submit→complete,
// seconds) under its priority band and the "all" aggregate. A band outside
// the fixed set counts toward the aggregate only.
func (s SLO) ObserveResponse(band string, seconds float64) {
	s.resp[0].Observe(seconds)
	for i := 1; i < len(sloBands); i++ {
		if sloBands[i] == band {
			s.resp[i].Observe(seconds)
		}
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

// Snapshot reads every objective and derives the ratios and percentiles;
// nothing derived is stored. Safe to call concurrently with recording. It
// always carries the fixed four bands — the report schema requires them —
// so the zero view reports them with zero counts.
func (s SLO) Snapshot() SLOSnapshot {
	snap := SLOSnapshot{
		// Read before the total: AddFailureWaste writes the total first, so a
		// concurrent snapshot never sees more failure waste than waste.
		WasteFailureCoreHours: s.wasteFailure.Value(),
		WasteCoreHours:        s.waste.Value(),
		UsefulCoreHours:       s.useful.Value(),
		KillDecisions:         s.kills.Value(),
		CheckpointDecisions:   s.checkpoints.Value(),
		FallbackKills:         s.fallbackKills.Value(),
		Response:              make(map[string]SLOResponse, len(sloBands)),
	}
	snap.WastePreemptionCoreHours = snap.WasteCoreHours - snap.WasteFailureCoreHours
	if total := snap.WasteCoreHours + snap.UsefulCoreHours; total > 0 {
		snap.WasteFraction = snap.WasteCoreHours / total
	}
	if decisions := snap.KillDecisions + snap.CheckpointDecisions; decisions > 0 {
		snap.CheckpointHitRate = float64(snap.CheckpointDecisions) / float64(decisions)
	}
	for i, band := range sloBands {
		h := s.resp[i].Snapshot()
		r := SLOResponse{Count: int64(h.Count), Max: h.Max}
		if h.Count > 0 {
			r.Mean = h.Sum / float64(h.Count)
			r.P50, r.P95, r.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		}
		snap.Response[band] = r
	}
	return snap
}
