package obs

import (
	"strconv"
	"time"

	"preemptsched/internal/cluster"
)

// EventKind names one lifecycle edge a scheduler reports. The kinds are the
// journal's eleven record shapes plus the two edges it does not keep
// (EvPlace, EvVacate), which only resource-tracking observers need.
type EventKind uint8

const (
	// EvSelection: the scored Candidates on Node weighed to make room for
	// the claimant Task, the chosen ones marked.
	EvSelection EventKind = iota + 1
	// EvDecision: an Algorithm 1 verdict on Task. Name is the action, Unsaved
	// the progress a kill loses, Est the checkpoint overhead weighed (kept
	// for kills too). A kill frees Task's resources at once; a checkpoint
	// at EvVacate, or at EvTaskDone if Task completes while pre-copying.
	EvDecision
	// EvDump: an image write that froze Task. Flags carry FlagIncremental
	// and FlagPreCopy, Est the open round trip's estimate.
	EvDump
	// EvPreDump: the pre-copy write window, during which Task kept running.
	EvPreDump
	// EvRestore: an image read. Est and Actual come from RoundTrip.Close;
	// Flags carry FlagRemote and FlagFailure.
	EvRestore
	// EvKillFallback: a checkpoint verdict degraded to a kill because the
	// dump failed; Name is that verdict, Unsaved the progress lost.
	EvKillFallback
	// EvTaskDone: Task completed and left Node.
	EvTaskDone
	// EvTaskRescheduled: Task fenced off the dead Node and requeued;
	// Unsaved is the progress the failure destroyed.
	EvTaskRescheduled
	// EvNodeDown: Node out of service. No Task; Unsaved is how long the
	// node had been unheard from, zero for an instant outage.
	EvNodeDown
	// EvNodeRecovered: a failed Node back in service.
	EvNodeRecovered
	// EvMarker: a subsystem edge named Name, about no task or node
	// (the daemon's drain-begin and drain-end).
	EvMarker
	// EvPlace: Task granted resources on Node, to run or restore there.
	EvPlace
	// EvVacate: a checkpointed Task's dump is durable and its resources
	// are back on Node.
	EvVacate
)

var eventNames = [...]string{
	EvSelection:       "victim-selection",
	EvDecision:        "decision",
	EvDump:            "dump",
	EvPreDump:         "pre-dump",
	EvRestore:         "restore",
	EvKillFallback:    "kill-fallback",
	EvTaskDone:        "task-done",
	EvTaskRescheduled: "task-rescheduled",
	EvNodeDown:        "node-down",
	EvNodeRecovered:   "node-recovered",
	EvMarker:          "marker",
	EvPlace:           "place",
	EvVacate:          "vacate",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) && eventNames[k] != "" {
		return eventNames[k]
	}
	return "EventKind(" + strconv.Itoa(int(k)) + ")"
}

// Event is one lifecycle edge, reported once by the layer it happened in.
// It carries raw values only; fields a kind does not use stay zero.
// Observers receive it by value, so reporting an edge allocates nothing.
type Event struct {
	Kind EventKind
	// At is the virtual-clock instant of the edge.
	At time.Duration
	// Source names the emitting layer ("sched", "yarn", "clusterd"); the
	// Emitter stamps it.
	Source string
	// Task is the subject task, or the claimant of an EvSelection.
	Task cluster.TaskID
	// Node is the index of the node the edge happened on.
	Node int
	// Priority is Task's priority.
	Priority cluster.Priority
	// Name is an EvDecision's action, the checkpoint verdict an
	// EvKillFallback degrades (not journaled), or an EvMarker's name.
	Name string
	// Unsaved, Est, Actual, Bytes, Flags and Span are the journal
	// record's fields of the same names.
	Unsaved, Est, Actual time.Duration
	Bytes                int64
	Flags                uint32
	Span                 SpanID
	// Candidates is an EvSelection's scored victim set.
	Candidates []CandidateScore
}

// Observer receives a run's lifecycle edges, inline on the goroutine that
// emits them, in emission order.
type Observer interface {
	Observe(Event)
}

// Emitter reports one layer's edges to its observer. The zero Emitter, and
// one made from a nil Observer or a nil *Recorder, is off: Emit returns
// at once, so call sites stay unconditional and a detached edge formats
// and allocates nothing.
type Emitter struct {
	o      Observer
	source string
}

// NewEmitter binds o to the layer name stamped on every event: "sched",
// "yarn" or "clusterd".
func NewEmitter(o Observer, source string) Emitter {
	if r, ok := o.(*Recorder); ok && r == nil {
		o = nil
	}
	return Emitter{o: o, source: source}
}

// On reports whether events go anywhere; callers test it before building
// an input that is itself costly (a scored candidate set).
func (e Emitter) On() bool { return e.o != nil }

// Emit reports ev, stamped with the layer's name.
func (e Emitter) Emit(ev Event) {
	if e.o == nil {
		return
	}
	ev.Source = e.source
	e.o.Observe(ev)
}

// NodeName renders a node index the way every record and span track
// names it.
func NodeName(node int) string { return "node-" + strconv.Itoa(node) }

// Observe journals ev as its record shape; EvPlace and EvVacate are not
// journaled. This is the one place an edge is rendered to strings: the
// Source stamp, NodeName and TaskID.String(), so every layer writes the
// same bytes for the same edge. A shape's fixed flags (FlagPreCopy on a
// pre-dump, FlagFallback on a kill-fallback, FlagFailure on a
// task-rescheduled or node-down) are set here too.
func (r *Recorder) Observe(ev Event) {
	if r == nil || ev.Kind == EvPlace || ev.Kind == EvVacate {
		return
	}
	rec := Record{
		Kind: RecEvent, At: ev.At, Source: ev.Source, Name: ev.Kind.String(),
		Priority: int(ev.Priority), Unsaved: ev.Unsaved, Est: ev.Est, Actual: ev.Actual,
		Bytes: ev.Bytes, Span: uint64(ev.Span), Flags: ev.Flags,
	}
	switch ev.Kind {
	case EvSelection:
		rec.Kind, rec.Claimant, rec.Candidates = RecSelection, ev.Task.String(), ev.Candidates
	case EvDecision:
		rec.Kind, rec.Name = RecDecision, ev.Name
	case EvPreDump:
		rec.Flags |= FlagPreCopy
	case EvKillFallback:
		rec.Flags |= FlagFallback
	case EvTaskRescheduled, EvNodeDown:
		rec.Flags |= FlagFailure
	case EvMarker:
		rec.Name = ev.Name
	}
	switch ev.Kind {
	case EvMarker:
	case EvSelection, EvNodeDown, EvNodeRecovered:
		rec.Node = NodeName(ev.Node)
	default:
		rec.Task, rec.Node = ev.Task.String(), NodeName(ev.Node)
	}
	r.Append(rec)
}
