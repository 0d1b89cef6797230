package sched

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// This file is the simulator's benchmarking and invariant-checking surface:
// a Probe callback fired on every scheduling decision and lifecycle edge,
// and a periodic sampler that reports queue depth, tasks in flight, and
// cumulative decision counts on the virtual clock. Both are nil by default
// and cost one pointer test per event when unused; the density suite
// (internal/sched/density) installs them to measure sustained scheduling
// decisions/sec and to shadow-check resource-safety invariants at scale.

// ProbeKind enumerates the simulator lifecycle events exposed to a Probe.
type ProbeKind uint8

const (
	// ProbePlace fires when a task is granted resources on a node and
	// begins running or restoring there.
	ProbePlace ProbeKind = iota + 1
	// ProbeFinish fires when a task completes and releases its node.
	ProbeFinish
	// ProbeKill fires when a preemption verdict kills the victim; its
	// resources are released at the same instant.
	ProbeKill
	// ProbeCheckpoint fires when a preemption verdict checkpoints the
	// victim. The victim keeps holding resources until the matching
	// ProbeVacate (or, for a task that completes during a pre-copy
	// window, ProbeFinish).
	ProbeCheckpoint
	// ProbeVacate fires when a checkpointed victim's dump is durable and
	// its resources return to the node.
	ProbeVacate
	// ProbeFence fires when a node failure displaces a task; resources on
	// the dead node are released at the same instant.
	ProbeFence
	// ProbeNodeDown and ProbeNodeUp bracket a seeded node outage.
	ProbeNodeDown
	ProbeNodeUp
)

func (k ProbeKind) String() string {
	switch k {
	case ProbePlace:
		return "place"
	case ProbeFinish:
		return "finish"
	case ProbeKill:
		return "kill"
	case ProbeCheckpoint:
		return "checkpoint"
	case ProbeVacate:
		return "vacate"
	case ProbeFence:
		return "fence"
	case ProbeNodeDown:
		return "node-down"
	case ProbeNodeUp:
		return "node-up"
	default:
		return "probe(?)"
	}
}

// ProbeEvent is one simulator lifecycle event. Node is the machine the
// event concerns; for ProbeFence it is the dead machine the task was
// displaced from.
type ProbeEvent struct {
	Kind ProbeKind
	Task cluster.TaskID
	Node cluster.NodeID
	At   sim.Time
}

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

// probe dispatches one lifecycle event to the configured Probe.
func (s *Simulator) probe(k ProbeKind, task cluster.TaskID, node cluster.NodeID, now sim.Time) {
	if s.cfg.Probe == nil {
		return
	}
	s.cfg.Probe(ProbeEvent{Kind: k, Task: task, Node: node, At: now})
}

// startSampler arms the periodic sampler. Each firing reports current
// state and re-arms itself only while other events remain, so sampling
// never keeps a finished simulation alive.
func (s *Simulator) startSampler() {
	if s.cfg.SampleEvery <= 0 || s.cfg.OnSample == nil {
		return
	}
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		s.cfg.OnSample(Sample{
			At:        now,
			InFlight:  s.inFlight,
			Queued:    s.queue.n,
			Decisions: s.decisions,
			Events:    s.engine.Fired(),
		})
		if s.engine.Pending() > 0 {
			s.engine.At(now+s.cfg.SampleEvery, tick)
		}
	}
	s.engine.At(s.cfg.SampleEvery, tick)
}
