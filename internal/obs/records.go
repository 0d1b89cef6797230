package obs

import (
	"strconv"
	"time"

	"preemptsched/internal/cluster"
)

// Emitter appends the journal's record shapes on behalf of one emitting
// subsystem. Each shape has exactly one appender below, taking plain
// values; the Source stamp and the "node-N" / TaskID.String() renderings are
// applied here, so every layer writes the same bytes for the same edge.
// The zero Emitter (and one made from a nil *Recorder) is a no-op that
// formats nothing, so call sites stay unconditional and a detached
// appender call does not allocate.
type Emitter struct {
	rec    *Recorder
	source string
}

// Emitter binds r to the subsystem name stamped on every record:
// "sched", "yarn" or "clusterd".
func (r *Recorder) Emitter(source string) Emitter { return Emitter{rec: r, source: source} }

// On reports whether records go anywhere; callers test it before
// building an input that is itself costly (a scored candidate set).
func (e Emitter) On() bool { return e.rec != nil }

// NodeName renders a node index the way every record and span track
// names it.
func NodeName(node int) string { return "node-" + strconv.Itoa(node) }

// task appends one record about a task on a node: r carries the fields
// particular to the shape, everything shared is stamped here.
func (e Emitter) task(kind RecordKind, at time.Duration, name string, task cluster.TaskID, node int, prio cluster.Priority, r Record) {
	if e.rec == nil {
		return
	}
	r.Kind, r.At, r.Source, r.Name = kind, at, e.source, name
	r.Task, r.Node, r.Priority = task.String(), NodeName(node), int(prio)
	e.rec.Append(r)
}

// Selection journals one victim-selection pass: the scored candidate set
// considered on node while finding room for claimant, chosen ones marked.
func (e Emitter) Selection(at time.Duration, claimant cluster.TaskID, node int, prio cluster.Priority, cands []CandidateScore) {
	if e.rec == nil {
		return
	}
	e.rec.Append(Record{
		Kind: RecSelection, At: at, Source: e.source, Name: "victim-selection",
		Claimant: claimant.String(), Node: NodeName(node), Priority: int(prio),
		Candidates: cands,
	})
}

// Decision journals one Algorithm 1 verdict: the action taken, the
// progress a kill would lose, and the checkpoint-overhead estimate the
// verdict weighed — recorded for kills too, so a kill can be explained
// against the checkpoint cost it avoided.
func (e Emitter) Decision(at time.Duration, action string, task cluster.TaskID, node int, prio cluster.Priority, unsaved, est time.Duration, span SpanID) {
	e.task(RecDecision, at, action, task, node, prio, Record{Unsaved: unsaved, Est: est, Span: uint64(span)})
}

// Dump journals one measured image write that froze the task; flags
// carry FlagIncremental and FlagPreCopy, est the open round trip's
// estimate.
func (e Emitter) Dump(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority, est, actual time.Duration, bytes int64, flags uint32, span SpanID) {
	e.task(RecEvent, at, "dump", task, node, prio, Record{Est: est, Actual: actual, Bytes: bytes, Flags: flags, Span: uint64(span)})
}

// PreDump journals the pre-copy write window, during which the task
// kept running.
func (e Emitter) PreDump(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority, est, actual time.Duration, bytes int64, span SpanID) {
	e.task(RecEvent, at, "pre-dump", task, node, prio, Record{Est: est, Actual: actual, Bytes: bytes, Flags: FlagPreCopy, Span: uint64(span)})
}

// Restore journals one image read; est and actual come from
// RoundTrip.Close and flags carry FlagRemote and FlagFailure.
func (e Emitter) Restore(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority, est, actual time.Duration, bytes int64, flags uint32, span SpanID) {
	e.task(RecEvent, at, "restore", task, node, prio, Record{Est: est, Actual: actual, Bytes: bytes, Flags: flags, Span: uint64(span)})
}

// KillFallback journals a checkpoint verdict that degraded to a kill
// because the dump failed; lost is the progress that went with it.
func (e Emitter) KillFallback(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority, lost time.Duration) {
	e.task(RecEvent, at, "kill-fallback", task, node, prio, Record{Unsaved: lost, Flags: FlagFallback})
}

// TaskDone journals a completion, bounding the task's timeline.
func (e Emitter) TaskDone(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority) {
	e.task(RecEvent, at, "task-done", task, node, prio, Record{})
}

// TaskRescheduled journals a task fenced off a dead node and requeued;
// lost is the progress the failure destroyed.
func (e Emitter) TaskRescheduled(at time.Duration, task cluster.TaskID, node int, prio cluster.Priority, lost time.Duration) {
	e.task(RecEvent, at, "task-rescheduled", task, node, prio, Record{Unsaved: lost, Flags: FlagFailure})
}

// NodeDown journals a node taken out of service. The record is
// node-centric: it has no Task, and silent (carried in Unsaved) is how
// long the node had been unheard from, zero when the outage is instant.
func (e Emitter) NodeDown(at time.Duration, node int, silent time.Duration) {
	if e.rec == nil {
		return
	}
	e.rec.Append(Record{
		Kind: RecEvent, At: at, Source: e.source, Name: "node-down",
		Node: NodeName(node), Unsaved: silent, Flags: FlagFailure,
	})
}

// NodeRecovered journals a failed node's return to service.
func (e Emitter) NodeRecovered(at time.Duration, node int) {
	if e.rec == nil {
		return
	}
	e.rec.Append(Record{Kind: RecEvent, At: at, Source: e.source, Name: "node-recovered", Node: NodeName(node)})
}

// Marker journals a subsystem lifecycle edge that concerns no task or
// node, such as the daemon's drain-begin and drain-end.
func (e Emitter) Marker(at time.Duration, name string) {
	if e.rec == nil {
		return
	}
	e.rec.Append(Record{Kind: RecEvent, At: at, Source: e.source, Name: name})
}
