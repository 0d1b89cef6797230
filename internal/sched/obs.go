package sched

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

// scoreCandidates rebuilds the provenance view of a victim choice on the
// chosen node: every discipline-eligible running task with its estimated
// checkpoint cost, the selected victims flagged. It is only invoked when
// a Recorder is attached, so the extra scan never taxes plain runs.
func (s *Simulator) scoreCandidates(n *node, t *taskRT, victims []*taskRT, now sim.Time) []obs.CandidateScore {
	chosen := make(map[cluster.TaskID]bool, len(victims))
	for _, v := range victims {
		chosen[v.spec.ID] = true
	}
	cands := s.preemptableOn(n, t)
	scores := make([]obs.CandidateScore, len(cands))
	for i, v := range cands {
		scores[i] = obs.CandidateScore{
			Task:     v.spec.ID.String(),
			Priority: int(v.spec.Priority),
			Cost:     core.CheckpointOverhead(s.candidateFor(v, now), n.device, now),
			Unsaved:  v.unsavedProgress(now),
			Chosen:   chosen[v.spec.ID],
		}
	}
	return scores
}
