package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
)

// GIVEN one obs.Event of each journaled kind, holding raw values,
// WHEN it is emitted through an Emitter whose observer is a Recorder,
// THEN the journal holds exactly the obs.Record in the table — Source
// stamped, node and task IDs rendered inside, the shape's fixed flags set
// — explain renders that record as the line beside it, and the same Emit
// on an Emitter with no observer, or with a nil *obs.Recorder, allocates
// nothing (the simulator emits every edge at ~200 k decisions/s with
// nothing attached).
func TestAppenderShapes(t *testing.T) {
	const at = 90 * time.Second
	task := cluster.TaskID{Job: 3, Index: 17}
	cands := []obs.CandidateScore{{Task: "1/2", Priority: 1, Cost: 4 * time.Second, Unsaved: time.Minute, Chosen: true}}
	for _, tc := range []struct {
		name   string
		ev     obs.Event
		want   obs.Record
		render string
	}{
		{
			name: "selection",
			ev:   obs.Event{Kind: obs.EvSelection, Task: task, Node: 4, Priority: 9, Candidates: cands},
			want: obs.Record{Kind: obs.RecSelection, Name: "victim-selection", Claimant: "3/17", Node: "node-4", Priority: 9, Candidates: cands},
			render: "T=1m30s        victim selection on node-4 for claimant 3/17 (priority 9): 1 candidates\n" +
				"   * 1/2        prio 1   est-cost 4s           unsaved 1m0s\n",
		},
		{
			name:   "decision",
			ev:     obs.Event{Kind: obs.EvDecision, Name: "kill", Task: task, Node: 4, Priority: 2, Unsaved: time.Minute, Est: 5 * time.Second, Span: 7},
			want:   obs.Record{Kind: obs.RecDecision, Name: "kill", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: time.Minute, Est: 5 * time.Second, Span: 7},
			render: "T=1m30s        decision kill: task 3/17 on node-4 (unsaved 1m0s, est overhead 5s)\n",
		},
		{
			name:   "dump",
			ev:     obs.Event{Kind: obs.EvDump, Task: task, Node: 4, Priority: 2, Est: 5 * time.Second, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagIncremental, Span: 8},
			want:   obs.Record{Kind: obs.RecEvent, Name: "dump", Task: "3/17", Node: "node-4", Priority: 2, Est: 5 * time.Second, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagIncremental, Span: 8},
			render: "T=1m30s        dump: task 3/17 on node-4, 1048576 bytes, actual 3s vs est 5s [incremental]\n",
		},
		{
			name:   "pre-dump",
			ev:     obs.Event{Kind: obs.EvPreDump, Task: task, Node: 4, Priority: 2, Est: 5 * time.Second, Actual: 2 * time.Second, Bytes: 1 << 20, Span: 9},
			want:   obs.Record{Kind: obs.RecEvent, Name: "pre-dump", Task: "3/17", Node: "node-4", Priority: 2, Est: 5 * time.Second, Actual: 2 * time.Second, Bytes: 1 << 20, Flags: obs.FlagPreCopy, Span: 9},
			render: "T=1m30s        pre-dump: task 3/17 on node-4, 1048576 bytes, actual 2s vs est 5s [pre-copy]\n",
		},
		{
			name:   "restore closing a round trip",
			ev:     obs.Event{Kind: obs.EvRestore, Task: task, Node: 5, Priority: 2, Est: 5 * time.Second, Actual: 6 * time.Second, Bytes: 1 << 20, Flags: obs.FlagRemote, Span: 10},
			want:   obs.Record{Kind: obs.RecEvent, Name: "restore", Task: "3/17", Node: "node-5", Priority: 2, Est: 5 * time.Second, Actual: 6 * time.Second, Bytes: 1 << 20, Flags: obs.FlagRemote, Span: 10},
			render: "T=1m30s        restore: task 3/17 on node-5, 1048576 bytes, actual 6s vs est 5s [remote]\n",
		},
		{
			name:   "restore with no open round trip",
			ev:     obs.Event{Kind: obs.EvRestore, Task: task, Node: 5, Priority: 2, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagFailure},
			want:   obs.Record{Kind: obs.RecEvent, Name: "restore", Task: "3/17", Node: "node-5", Priority: 2, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagFailure},
			render: "T=1m30s        restore: task 3/17 on node-5, 1048576 bytes, actual 3s [failure]\n",
		},
		{
			name:   "kill-fallback",
			ev:     obs.Event{Kind: obs.EvKillFallback, Task: task, Node: 4, Priority: 2, Unsaved: 40 * time.Second},
			want:   obs.Record{Kind: obs.RecEvent, Name: "kill-fallback", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: 40 * time.Second, Flags: obs.FlagFallback},
			render: "T=1m30s        kill-fallback: task 3/17 on node-4, lost 40s [fallback]\n",
		},
		{
			name:   "task-done",
			ev:     obs.Event{Kind: obs.EvTaskDone, Task: task, Node: 4, Priority: 2},
			want:   obs.Record{Kind: obs.RecEvent, Name: "task-done", Task: "3/17", Node: "node-4", Priority: 2},
			render: "T=1m30s        task-done: task 3/17 on node-4\n",
		},
		{
			name:   "task-rescheduled",
			ev:     obs.Event{Kind: obs.EvTaskRescheduled, Task: task, Node: 4, Priority: 2, Unsaved: 30 * time.Second},
			want:   obs.Record{Kind: obs.RecEvent, Name: "task-rescheduled", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: 30 * time.Second, Flags: obs.FlagFailure},
			render: "T=1m30s        task-rescheduled: task 3/17 lost node-4 with it, 30s of progress forfeit [failure]\n",
		},
		{
			name:   "node-down",
			ev:     obs.Event{Kind: obs.EvNodeDown, Node: 4, Unsaved: 20 * time.Second},
			want:   obs.Record{Kind: obs.RecEvent, Name: "node-down", Node: "node-4", Unsaved: 20 * time.Second, Flags: obs.FlagFailure},
			render: "T=1m30s        node-down: node-4 declared dead, containers released\n",
		},
		{
			name:   "node-recovered",
			ev:     obs.Event{Kind: obs.EvNodeRecovered, Node: 4},
			want:   obs.Record{Kind: obs.RecEvent, Name: "node-recovered", Node: "node-4"},
			render: "T=1m30s        node-recovered: node-4 heartbeating again, capacity restored\n",
		},
		{
			name:   "marker",
			ev:     obs.Event{Kind: obs.EvMarker, Name: "drain-begin"},
			want:   obs.Record{Kind: obs.RecEvent, Name: "drain-begin"},
			render: "T=1m30s        drain-begin (layer)\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(0, 0)
			ev := tc.ev
			ev.At = at
			obs.NewEmitter(rec, "layer").Emit(ev)
			var buf bytes.Buffer
			if _, err := rec.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			j, err := obs.ReadJournal(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(j.Records) != 1 {
				t.Fatalf("appended %d records, want 1", len(j.Records))
			}
			want := tc.want
			want.Seq, want.At, want.Source = 1, at, "layer"
			if got := j.Records[0]; !reflect.DeepEqual(got, want) {
				t.Errorf("appended\n  %+v\nwant\n  %+v", got, want)
			}
			if got := string(render(t, func() { printRecord(j.Records[0], "") })); got != tc.render {
				t.Errorf("explain renders\n  %q\nwant\n  %q", got, tc.render)
			}

			var detached *obs.Recorder
			for _, off := range []obs.Emitter{{}, obs.NewEmitter(nil, "layer"), obs.NewEmitter(detached, "layer")} {
				if off.On() {
					t.Errorf("%+v reports On", off)
				}
				if allocs := testing.AllocsPerRun(100, func() { off.Emit(ev) }); allocs != 0 {
					t.Errorf("Emit on %+v allocates %.0f objects per call, want 0", off, allocs)
				}
			}
		})
	}
}

// GIVEN the two edges only resource-tracking observers need, a placement
// and a vacate,
// WHEN they are emitted to a Recorder,
// THEN the journal keeps neither: its records are exactly the journal
// shapes above.
func TestRecorderSkipsPlaceAndVacate(t *testing.T) {
	rec := obs.NewRecorder(0, 0)
	e := obs.NewEmitter(rec, "layer")
	for _, kind := range []obs.EventKind{obs.EvPlace, obs.EvVacate} {
		e.Emit(obs.Event{Kind: kind, At: time.Second, Task: cluster.TaskID{Job: 1, Index: 2}, Node: 3})
	}
	if n := rec.Seq(); n != 0 {
		t.Errorf("journaled %d records for a place and a vacate, want none", n)
	}
}
