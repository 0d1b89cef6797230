package sched

import "preemptsched/internal/sim"

// This file is the simulator's periodic sampler: on the virtual clock it
// reports queue depth, tasks in flight, and cumulative decision counts. It
// is off by default; the density suite (internal/sched/density) installs it
// to print the scheduling rate over time at scale.

// Sample is one periodic observation of scheduler state on the virtual
// clock, delivered to Config.OnSample.
type Sample struct {
	// At is the virtual instant of the sample.
	At sim.Time
	// InFlight counts tasks currently holding node resources (running,
	// checkpointing, or restoring).
	InFlight int
	// Queued is the pending-queue depth.
	Queued int
	// Decisions is the cumulative scheduling-decision count: successful
	// placements plus preemption verdicts.
	Decisions uint64
	// Events is the cumulative count of engine events fired.
	Events uint64
}

// startSampler arms the periodic sampler. Each firing reports current
// state and re-arms itself only while other events remain, so sampling
// never keeps a finished simulation alive.
func (s *Simulator) startSampler() {
	if s.cfg.SampleEvery <= 0 || s.cfg.OnSample == nil {
		return
	}
	var tick sim.Handler
	tick = func(now sim.Time) {
		s.cfg.OnSample(Sample{
			At:        now,
			InFlight:  s.inFlight,
			Queued:    s.queue.n,
			Decisions: s.res.Decisions,
			Events:    s.engine.Fired(),
		})
		if s.engine.Pending() > 0 {
			s.engine.After(s.cfg.SampleEvery, tick)
		}
	}
	s.engine.At(s.cfg.SampleEvery, tick)
}
