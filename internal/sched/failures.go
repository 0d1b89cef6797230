package sched

import (
	"slices"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// This file applies Config.NodeFailures to the trace simulator. The model
// is deliberately simpler than the yarn layer's heartbeat/liveness loop:
// an outage takes effect the instant it fires — running tasks are fenced,
// their unsaved progress becomes failure waste, and they re-enter the
// pending queue where normal placement resumes them from a surviving
// checkpoint image (failure restore) or from scratch (failure restart).
// Checkpoint images survive their home node's death — the store they
// model is DFS-replicated — so only the restore locality is lost, never
// the banked progress.

// failNode takes one machine out at its seeded time.
func (s *Simulator) failNode(f NodeFailure, now sim.Time) {
	n := s.nodes[f.Node]
	if n.down {
		return
	}
	n.down = true
	n.touch()
	n.Settle(now)
	s.emit(obs.Event{Kind: obs.EvNodeDown, At: now, Node: int(n.id)})
	// Fencing removes tasks from n.running, so walk a snapshot, in task-ID
	// order: the order fixes the fenced tasks' order in the pending queue.
	// candScratch is idle outside a provenance rescan.
	snapshot := s.candScratch[:0]
	for _, e := range n.running {
		snapshot = append(snapshot, e.t)
	}
	slices.SortFunc(snapshot, byTaskID)
	s.candScratch = snapshot[:0]
	for _, t := range snapshot {
		s.fenceTask(t, now)
	}
	// Waiters parked on the dead node's capacity must not keep waiting
	// for dumps that will never free it.
	for _, head := range s.queue.head {
		for t := head; t != nil; t = t.qnext {
			if t.reservedOn == n {
				s.unreserve(t)
			}
		}
	}
	n.Reserved = cluster.Resources{}
	// Shares are computed against live capacity.
	s.totalCap = s.totalCap.Sub(n.Cap)
	if f.RecoverAfter > 0 {
		s.engine.After(f.RecoverAfter, func(at sim.Time) {
			s.recoverNode(n, at)
		})
	}
	s.requestSchedule(now)
}

// fenceTask evicts one task from a dead node. A running task loses its
// attempt-local progress; a restoring task loses only the read in flight
// (its image is intact); a checkpointing task is left alone — its dump is
// already draining to replicated storage and vacate will requeue it.
func (s *Simulator) fenceTask(t *taskRT, now sim.Time) {
	n := t.node
	switch t.phase {
	case phaseCheckpointing:
		return
	case phaseRestoring:
		s.unseat(t, now)
		s.rescheduleFailed(t, n, 0, now)
	case phaseRunning:
		lost := t.unsavedProgress(now)
		s.engine.Cancel(t.completion)
		t.completion = nil
		t.preCopying = false
		s.unmarkRunning(t)
		s.res.ChargeFailureWaste(t.spec, lost)
		s.unseat(t, now)
		s.rescheduleFailed(t, n, lost, now)
	}
}

// rescheduleFailed books the displacement and requeues t.
func (s *Simulator) rescheduleFailed(t *taskRT, n *node, lost time.Duration, now sim.Time) {
	t.failedOver = true
	s.emit(obs.Event{Kind: obs.EvTaskRescheduled, At: now, Task: t.spec.ID, Node: int(n.id), Priority: t.spec.Priority,
		Unsaved: lost})
	t.trip.Abandon()
	s.enqueue(t, now)
}

// recoverNode brings a failed machine back into service.
func (s *Simulator) recoverNode(n *node, at sim.Time) {
	if !n.down {
		return
	}
	n.down = false
	n.touch()
	s.totalCap = s.totalCap.Add(n.Cap)
	s.emit(obs.Event{Kind: obs.EvNodeRecovered, At: at, Node: int(n.id)})
	s.requestSchedule(at)
}
