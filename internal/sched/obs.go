package sched

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// emit books ev in the run's counters (core.Outcome.Count), then reports it.
func (s *Simulator) emit(ev obs.Event) {
	s.res.Count(ev)
	s.events.Emit(ev)
}

// scoreCandidates rebuilds the provenance view of a victim choice on the
// chosen node: every discipline-eligible running task, in task-ID order
// rather than the eviction order the scan walked, with the estimated
// checkpoint cost the scan ranked it by (victimCost), the selected victims
// flagged. It is only invoked when an observer is attached, so the extra
// scan never taxes plain runs.
func (s *Simulator) scoreCandidates(n *node, t *taskRT, victims []*taskRT, now sim.Time) []obs.CandidateScore {
	chosen := make(map[cluster.TaskID]bool, len(victims))
	for _, v := range victims {
		chosen[v.spec.ID] = true
	}
	cands := s.preemptableOn(n, t)
	scores := make([]obs.CandidateScore, len(cands))
	q := n.Device.QueueDelay(now)
	for i, v := range cands {
		scores[i] = obs.CandidateScore{
			Task:     v.spec.ID.String(),
			Priority: int(v.spec.Priority),
			Cost:     s.victimCost(v, q, now),
			Unsaved:  v.unsavedProgress(now),
			Chosen:   chosen[v.spec.ID],
		}
	}
	return scores
}
