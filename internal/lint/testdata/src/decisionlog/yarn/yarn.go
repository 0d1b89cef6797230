// Package yarn is decisionlog testdata loaded under the import path
// preemptsched/internal/yarn, so Algorithm 1 verdicts taken here must be
// journaled in the same function.
package yarn

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
)

type scheduler struct {
	jrn obs.Emitter
	rec *obs.Recorder
}

// silentKill decides and acts without journaling — the hole explain
// cannot see past.
func (s *scheduler) silentKill() {
	action := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	_ = action
}

// viaAppender journals through the decision appender.
func (s *scheduler) viaAppender() {
	action := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0)
	s.jrn.Decision(0, action.String(), cluster.TaskID{}, 0, 0, 0, 0, 0)
}

// recordDecision is a layer-local helper. Whatever it does inside, the
// function that took the verdict did not call the appender itself.
func (s *scheduler) recordDecision(action core.PreemptAction) {
	s.jrn.Decision(0, action.String(), cluster.TaskID{}, 0, 0, 0, 0, 0)
}

func (s *scheduler) viaHelper() {
	action := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	s.recordDecision(action)
}

// viaRawAppend hand-builds a record: that is not the decision shape's one
// definition, so it does not count.
func (s *scheduler) viaRawAppend() {
	action := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	s.rec.Append(obs.Record{Kind: obs.RecDecision, Name: action.String()})
}

// otherAppender journals something, but not the verdict.
func (s *scheduler) otherAppender() {
	action := core.DecidePreemption(core.PolicyKill, core.Candidate{}, nil, 0) // want "verdict is never journaled"
	_ = action
	s.jrn.TaskDone(0, cluster.TaskID{}, 0, 0)
}

// noDecision never consults Algorithm 1 — nothing to journal.
func (s *scheduler) noDecision() {
	s.jrn.TaskDone(0, cluster.TaskID{}, 0, 0)
}
