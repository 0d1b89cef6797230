package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// Calibration constants, derived in DESIGN.md from the paper's Section 2.
//
// Latency-class population shares (Table 2: 37.4M / 5.94M / 3.70M / 0.28M).
var latencyShare = [cluster.NumLatencyClasses]float64{0.7903, 0.1255, 0.0782, 0.0060}

// Probability that a task of latency class l is in the free band, solved
// so the per-class preemption rates of Table 2 emerge from the per-band
// rates of Table 1.
var freeGivenLatency = [cluster.NumLatencyClasses]float64{0.5678, 0.9293, 0.3838, 0.7224}

// Share of non-free tasks in the middle band (17.3M / (17.3M + 1.7M)).
const middleGivenNotFree = 0.9105

// Per-band probability that a scheduled task is preempted at least once
// (Table 1).
var preemptRate = [cluster.NumBands]float64{0.2026, 0.0055, 0.0102}

// Distribution of the number of evictions for a preempted task,
// calibrated to Fig. 1c: 56.5% evicted exactly once, 17% ten or more
// times. Index i holds P(count == i+1); the final mass is P(count >= 10).
var evictCountDist = []float64{0.565, 0.09, 0.055, 0.04, 0.03, 0.02, 0.015, 0.008, 0.007}

// Mean task durations per band. Free-band work is the long-running,
// repeatedly restarted population the paper highlights.
var meanDuration = [cluster.NumBands]time.Duration{
	2 * time.Hour,
	40 * time.Minute,
	30 * time.Minute,
}

// GenConfig parameterizes the synthetic trace.
type GenConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Tasks is the number of tasks to emit events for.
	Tasks int
	// Duration is the trace span (the real trace covers 29 days).
	Duration time.Duration
}

// DefaultGenConfig returns a laptop-scale 29-day trace configuration.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 1, Tasks: 200_000, Duration: 29 * 24 * time.Hour}
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	if c.Tasks <= 0 {
		return fmt.Errorf("trace: Tasks=%d must be positive", c.Tasks)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("trace: Duration=%v must be positive", c.Duration)
	}
	return nil
}

// sampleBandLatency draws a (band, latency) pair from the calibrated joint
// distribution.
func sampleBandLatency(rng *sim.RNG) (cluster.Band, cluster.LatencyClass) {
	u := rng.Float64()
	var latency cluster.LatencyClass
	acc := 0.0
	for l, share := range latencyShare {
		acc += share
		if u < acc || l == len(latencyShare)-1 {
			latency = cluster.LatencyClass(l)
			break
		}
	}
	var band cluster.Band
	switch {
	case rng.Bernoulli(freeGivenLatency[latency]):
		band = cluster.BandFree
	case rng.Bernoulli(middleGivenNotFree):
		band = cluster.BandMiddle
	default:
		band = cluster.BandProduction
	}
	return band, latency
}

// samplePriority picks a raw priority within a band. Within the free band
// priority 0 dominates, matching Fig. 1b's concentration of preemptions at
// the lowest priorities.
func samplePriority(rng *sim.RNG, band cluster.Band) cluster.Priority {
	switch band {
	case cluster.BandFree:
		if rng.Bernoulli(0.7) {
			return 0
		}
		return 1
	case cluster.BandMiddle:
		// Decreasing weights across 2..8.
		weights := []float64{0.30, 0.22, 0.16, 0.12, 0.09, 0.07, 0.04}
		u := rng.Float64()
		acc := 0.0
		for i, w := range weights {
			acc += w
			if u < acc {
				return cluster.Priority(2 + i)
			}
		}
		return 8
	default:
		return cluster.Priority(9 + rng.Intn(3))
	}
}

// sampleEvictions draws how many times a preempted task is evicted.
func sampleEvictions(rng *sim.RNG) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range evictCountDist {
		acc += p
		if u < acc {
			return i + 1
		}
	}
	// The >= 10 tail: 10 plus an exponential excess.
	return 10 + int(rng.Exp(5))
}

// sampleDuration draws a heavy-tailed task duration for a band.
func sampleDuration(rng *sim.RNG, band cluster.Band) time.Duration {
	mean := meanDuration[band].Seconds()
	// Bounded Pareto with alpha 1.6 has a heavy but integrable tail; scale
	// xm so the (untruncated) mean matches the band mean: E = xm*a/(a-1).
	const alpha = 1.6
	xm := mean * (alpha - 1) / alpha
	secs := rng.Pareto(xm, alpha, mean*50)
	return time.Duration(secs * float64(time.Second))
}

// diurnalRate modulates arrival intensity with a daily cycle (Fig. 1a's
// preemption-rate timeline follows cluster load).
func diurnalRate(t, day time.Duration) float64 {
	phase := 2 * math.Pi * float64(t%day) / float64(day)
	return 1 + 0.3*math.Sin(phase)
}

// Generate produces a calibrated synthetic event trace, sorted by time.
func Generate(cfg GenConfig) ([]Event, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	day := 24 * time.Hour
	events := make([]Event, 0, cfg.Tasks*4)

	for i := 0; i < cfg.Tasks; i++ {
		id := cluster.TaskID{Job: cluster.JobID(i / 8), Index: int32(i % 8)}
		band, latency := sampleBandLatency(rng)
		prio := samplePriority(rng, band)
		dur := sampleDuration(rng, band)
		cpu := cluster.Cores(rng.Bounded(0.25, 4))

		// Submission: uniform over the span, thinned by the diurnal factor
		// via rejection so busy hours carry more arrivals.
		var submit time.Duration
		for {
			submit = time.Duration(rng.Int63n(int64(cfg.Duration)))
			if rng.Float64()*1.3 < diurnalRate(submit, day) {
				break
			}
		}

		evictions := 0
		if rng.Bernoulli(preemptRate[band]) {
			evictions = sampleEvictions(rng)
		}

		emit := func(t time.Duration, typ EventType) {
			events = append(events, Event{
				Time: t, Type: typ, Task: id,
				Priority: prio, Latency: latency, CPU: cpu,
			})
		}

		t := submit
		emit(t, Submit)
		t += time.Duration(rng.Exp(30 * float64(time.Second)))
		emit(t, Schedule)
		for e := 0; e < evictions; e++ {
			// Kill-based preemption loses partial progress; the attempt
			// runs a fraction of the full duration before eviction.
			ran := time.Duration(rng.Bounded(0.25, 0.95) * float64(dur))
			t += ran
			emit(t, Evict)
			// Resubmission backoff before the next placement.
			t += time.Duration(rng.Exp(5 * float64(time.Minute)))
			emit(t, Schedule)
		}
		t += dur
		emit(t, Finish)
	}

	sort.Slice(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		if events[i].Task != events[j].Task {
			if events[i].Task.Job != events[j].Task.Job {
				return events[i].Task.Job < events[j].Task.Job
			}
			return events[i].Task.Index < events[j].Task.Index
		}
		return events[i].Type < events[j].Type
	})
	return events, nil
}
