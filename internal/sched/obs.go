package sched

import (
	"strconv"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sim"
)

func nodeName(id cluster.NodeID) string { return "node-" + strconv.Itoa(int(id)) }

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

// recordSelection journals the candidate set considered when claimant t
// preempts on node n.
func (s *Simulator) recordSelection(t *taskRT, n *node, scores []obs.CandidateScore, now sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:       obs.RecSelection,
		At:         time.Duration(now),
		Source:     "sched",
		Name:       "victim-selection",
		Claimant:   t.spec.ID.String(),
		Node:       nodeName(n.id),
		Priority:   int(t.spec.Priority),
		Candidates: scores,
	})
}

// recordDecision journals one Algorithm 1 verdict for victim v together
// with the checkpoint-overhead estimate the verdict weighed, so a kill
// can later be explained against the checkpoint cost it avoided. The
// estimate is stashed on v for the est-vs-actual comparison at dump and
// restore time.
func (s *Simulator) recordDecision(v *taskRT, n *node, action core.PreemptAction, cand core.Candidate, now sim.Time) {
	if s.rec == nil {
		return
	}
	est := core.CheckpointOverhead(cand, n.device, now)
	v.estOverhead = est
	s.rec.Append(obs.Record{
		Kind:     obs.RecDecision,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     action.String(),
		Task:     v.spec.ID.String(),
		Node:     nodeName(n.id),
		Priority: int(v.spec.Priority),
		Unsaved:  v.unsavedProgress(now),
		Est:      est,
	})
}

// journalDump appends the measured dump window for v's current image
// write; flags distinguish incremental layers and pre-copy freezes.
func (s *Simulator) journalDump(v *taskRT, bytes int64, flags uint32, now, done sim.Time) {
	if s.rec == nil {
		return
	}
	v.dumpCost = time.Duration(done - now)
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "dump",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
		Est:      v.estOverhead,
		Actual:   time.Duration(done - now),
		Bytes:    bytes,
		Flags:    flags,
	})
}

// journalPreDump appends the pre-copy window preceding a freeze dump.
func (s *Simulator) journalPreDump(v *taskRT, bytes int64, now, done sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "pre-dump",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
		Actual:   time.Duration(done - now),
		Bytes:    bytes,
		Flags:    obs.FlagPreCopy,
	})
}

// journalRestore appends the measured restore window and closes the
// est-vs-actual loop: Actual covers the full checkpoint round trip (dump
// plus restore) that the decision-time estimate predicted.
func (s *Simulator) journalRestore(v *taskRT, target *node, remote bool, now, done sim.Time) {
	if s.rec == nil {
		return
	}
	var flags uint32
	if remote {
		flags |= obs.FlagRemote
	}
	if v.failedOver {
		flags |= obs.FlagFailure
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "restore",
		Task:     v.spec.ID.String(),
		Node:     nodeName(target.id),
		Priority: int(v.spec.Priority),
		Est:      v.estOverhead,
		Actual:   v.dumpCost + time.Duration(done-now),
		Bytes:    v.spec.MemFootprint,
		Flags:    flags,
	})
	v.estOverhead = 0
	v.dumpCost = 0
}

// journalNodeDown appends a node outage event.
func (s *Simulator) journalNodeDown(n *node, now sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:   obs.RecEvent,
		At:     time.Duration(now),
		Source: "sched",
		Name:   "node-down",
		Node:   nodeName(n.id),
		Flags:  obs.FlagFailure,
	})
}

// journalNodeRecovered appends a node's return to service.
func (s *Simulator) journalNodeRecovered(n *node, now sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:   obs.RecEvent,
		At:     time.Duration(now),
		Source: "sched",
		Name:   "node-recovered",
		Node:   nodeName(n.id),
	})
}

// journalTaskRescheduled appends a task's displacement off a dead node;
// Unsaved carries the progress the failure destroyed.
func (s *Simulator) journalTaskRescheduled(t *taskRT, n *node, lost time.Duration, now sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "task-rescheduled",
		Task:     t.spec.ID.String(),
		Node:     nodeName(n.id),
		Priority: int(t.spec.Priority),
		Unsaved:  lost,
		Flags:    obs.FlagFailure,
	})
}

// journalTaskDone appends a completion event so timelines can bound each
// task's story.
func (s *Simulator) journalTaskDone(v *taskRT, now sim.Time) {
	if s.rec == nil {
		return
	}
	s.rec.Append(obs.Record{
		Kind:     obs.RecEvent,
		At:       time.Duration(now),
		Source:   "sched",
		Name:     "task-done",
		Task:     v.spec.ID.String(),
		Node:     nodeName(v.node.id),
		Priority: int(v.spec.Priority),
	})
}
