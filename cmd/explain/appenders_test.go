package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
)

// GIVEN each record shape's one typed appender (obs.Emitter),
// WHEN it is called with plain values,
// THEN the journal holds exactly the obs.Record in the table — Source
// stamped, node and task IDs rendered inside — explain renders that
// record as the line beside it, and the same call on an Emitter with no
// recorder appends nothing and allocates nothing (the simulator makes
// these calls at ~100 k decisions/s with no recorder attached).
func TestAppenderShapes(t *testing.T) {
	const at = 90 * time.Second
	task := cluster.TaskID{Job: 3, Index: 17}
	cands := []obs.CandidateScore{{Task: "1/2", Priority: 1, Cost: 4 * time.Second, Unsaved: time.Minute, Chosen: true}}
	for _, tc := range []struct {
		name   string
		emit   func(obs.Emitter)
		want   obs.Record
		render string
	}{
		{
			name: "selection",
			emit: func(e obs.Emitter) { e.Selection(at, task, 4, 9, cands) },
			want: obs.Record{Kind: obs.RecSelection, Name: "victim-selection", Claimant: "3/17", Node: "node-4", Priority: 9, Candidates: cands},
			render: "T=1m30s        victim selection on node-4 for claimant 3/17 (priority 9): 1 candidates\n" +
				"   * 1/2        prio 1   est-cost 4s           unsaved 1m0s\n",
		},
		{
			name:   "decision",
			emit:   func(e obs.Emitter) { e.Decision(at, "kill", task, 4, 2, time.Minute, 5*time.Second, 7) },
			want:   obs.Record{Kind: obs.RecDecision, Name: "kill", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: time.Minute, Est: 5 * time.Second, Span: 7},
			render: "T=1m30s        decision kill: task 3/17 on node-4 (unsaved 1m0s, est overhead 5s)\n",
		},
		{
			name: "dump",
			emit: func(e obs.Emitter) {
				e.Dump(at, task, 4, 2, 5*time.Second, 3*time.Second, 1<<20, obs.FlagIncremental, 8)
			},
			want:   obs.Record{Kind: obs.RecEvent, Name: "dump", Task: "3/17", Node: "node-4", Priority: 2, Est: 5 * time.Second, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagIncremental, Span: 8},
			render: "T=1m30s        dump: task 3/17 on node-4, 1048576 bytes, actual 3s vs est 5s [incremental]\n",
		},
		{
			name:   "pre-dump",
			emit:   func(e obs.Emitter) { e.PreDump(at, task, 4, 2, 5*time.Second, 2*time.Second, 1<<20, 9) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "pre-dump", Task: "3/17", Node: "node-4", Priority: 2, Est: 5 * time.Second, Actual: 2 * time.Second, Bytes: 1 << 20, Flags: obs.FlagPreCopy, Span: 9},
			render: "T=1m30s        pre-dump: task 3/17 on node-4, 1048576 bytes, actual 2s vs est 5s [pre-copy]\n",
		},
		{
			name: "restore closing a round trip",
			emit: func(e obs.Emitter) {
				e.Restore(at, task, 5, 2, 5*time.Second, 6*time.Second, 1<<20, obs.FlagRemote, 10)
			},
			want:   obs.Record{Kind: obs.RecEvent, Name: "restore", Task: "3/17", Node: "node-5", Priority: 2, Est: 5 * time.Second, Actual: 6 * time.Second, Bytes: 1 << 20, Flags: obs.FlagRemote, Span: 10},
			render: "T=1m30s        restore: task 3/17 on node-5, 1048576 bytes, actual 6s vs est 5s [remote]\n",
		},
		{
			name:   "restore with no open round trip",
			emit:   func(e obs.Emitter) { e.Restore(at, task, 5, 2, 0, 3*time.Second, 1<<20, obs.FlagFailure, 0) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "restore", Task: "3/17", Node: "node-5", Priority: 2, Actual: 3 * time.Second, Bytes: 1 << 20, Flags: obs.FlagFailure},
			render: "T=1m30s        restore: task 3/17 on node-5, 1048576 bytes, actual 3s [failure]\n",
		},
		{
			name:   "kill-fallback",
			emit:   func(e obs.Emitter) { e.KillFallback(at, task, 4, 2, 40*time.Second) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "kill-fallback", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: 40 * time.Second, Flags: obs.FlagFallback},
			render: "T=1m30s        kill-fallback: task 3/17 on node-4, lost 40s [fallback]\n",
		},
		{
			name:   "task-done",
			emit:   func(e obs.Emitter) { e.TaskDone(at, task, 4, 2) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "task-done", Task: "3/17", Node: "node-4", Priority: 2},
			render: "T=1m30s        task-done: task 3/17 on node-4\n",
		},
		{
			name:   "task-rescheduled",
			emit:   func(e obs.Emitter) { e.TaskRescheduled(at, task, 4, 2, 30*time.Second) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "task-rescheduled", Task: "3/17", Node: "node-4", Priority: 2, Unsaved: 30 * time.Second, Flags: obs.FlagFailure},
			render: "T=1m30s        task-rescheduled: task 3/17 lost node-4 with it, 30s of progress forfeit [failure]\n",
		},
		{
			name:   "node-down",
			emit:   func(e obs.Emitter) { e.NodeDown(at, 4, 20*time.Second) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "node-down", Node: "node-4", Unsaved: 20 * time.Second, Flags: obs.FlagFailure},
			render: "T=1m30s        node-down: node-4 declared dead, containers released\n",
		},
		{
			name:   "node-recovered",
			emit:   func(e obs.Emitter) { e.NodeRecovered(at, 4) },
			want:   obs.Record{Kind: obs.RecEvent, Name: "node-recovered", Node: "node-4"},
			render: "T=1m30s        node-recovered: node-4 heartbeating again, capacity restored\n",
		},
		{
			name:   "marker",
			emit:   func(e obs.Emitter) { e.Marker(at, "drain-begin") },
			want:   obs.Record{Kind: obs.RecEvent, Name: "drain-begin"},
			render: "T=1m30s        drain-begin (layer)\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(0, 0)
			tc.emit(rec.Emitter("layer"))
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
			off := detached.Emitter("layer")
			if off.On() {
				t.Error("Emitter of a nil Recorder reports On")
			}
			if allocs := testing.AllocsPerRun(100, func() { tc.emit(off) }); allocs != 0 {
				t.Errorf("detached appender allocates %.0f objects per call, want 0", allocs)
			}
		})
	}
}
