package yarn

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
)

// TestObservedRunSpanChains is the observability acceptance test: an
// instrumented run must produce, for every checkpointed task, a complete
// dump → queue-wait → restore span chain, and the registry must carry
// dump/restore latency distributions whose counts agree with the Result.
func TestObservedRunSpanChains(t *testing.T) {
	jobs := mixedWorkload(t)
	cfg := chaosConfig()
	cfg.Tracer = obs.NewTracer(1 << 16)
	cfg.Metrics = obs.NewRegistry()

	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoints == 0 || r.Restores == 0 {
		t.Fatalf("run exercised no checkpoint cycle: %d dumps, %d restores", r.Checkpoints, r.Restores)
	}

	spans := cfg.Tracer.Snapshot()
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; grow the test capacity", cfg.Tracer.Dropped())
	}
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	byName := make(map[string][]obs.Span)
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}

	if got := len(byName["dump"]); got != r.Checkpoints {
		t.Errorf("%d dump spans, Result.Checkpoints = %d", got, r.Checkpoints)
	}
	if got := len(byName["restore"]); got != r.Restores {
		t.Errorf("%d restore spans, Result.Restores = %d", got, r.Restores)
	}
	if got := len(byName["policy-decision"]); got != r.Preemptions {
		t.Errorf("%d policy-decision instants, Result.Preemptions = %d", got, r.Preemptions)
	}

	// Every restore must chain back to the dump that produced its image,
	// with a queue-wait span bridging the gap on the same task track.
	queueWaitFor := make(map[obs.SpanID]bool)
	for _, qw := range byName["queue-wait"] {
		queueWaitFor[qw.Parent] = true
	}
	for _, rs := range byName["restore"] {
		ckpt, ok := byID[rs.Parent]
		if !ok {
			t.Fatalf("restore span %d for task %s has no parent checkpoint span", rs.ID, rs.TID)
		}
		if ckpt.Name != "dump" && ckpt.Name != "pre-dump" {
			t.Errorf("restore %d parented to %q, want dump or pre-dump", rs.ID, ckpt.Name)
		}
		if ckpt.TID != rs.TID {
			t.Errorf("restore %d on task %s chains to dump on task %s", rs.ID, rs.TID, ckpt.TID)
		}
		if !queueWaitFor[rs.Parent] {
			t.Errorf("no queue-wait span bridges dump %d to restore %d (task %s)", rs.Parent, rs.ID, rs.TID)
		}
		if ckpt.End > rs.Start {
			t.Errorf("restore %d starts at %v before its dump ends at %v", rs.ID, rs.Start, ckpt.End)
		}
		// The restore's device phases are children of the restore span.
		kids := 0
		for _, name := range []string{"restore-queue", "restore-read", "restore-transfer"} {
			for _, child := range byName[name] {
				if child.Parent == rs.ID {
					kids++
				}
			}
		}
		if kids < 2 {
			t.Errorf("restore %d has %d phase children, want at least queue+read", rs.ID, kids)
		}
	}

	// Registry counts must agree with the run's Result.
	snap := r.Metrics
	if h := snap.Hist("yarn.dump.total.seconds"); int(h.Count) != r.Checkpoints {
		t.Errorf("yarn.dump.total.seconds count = %d, Result.Checkpoints = %d", h.Count, r.Checkpoints)
	}
	if h := snap.Hist("yarn.restore.total.seconds"); int(h.Count) != r.Restores {
		t.Errorf("yarn.restore.total.seconds count = %d, Result.Restores = %d", h.Count, r.Restores)
	}
	for _, name := range []string{"yarn.dump.total.seconds", "yarn.restore.total.seconds"} {
		h := snap.Hist(name)
		if !(h.Quantile(0.5) > 0) || h.Quantile(0.5) > h.Quantile(0.99) || h.Quantile(0.99) > h.Max {
			t.Errorf("%s quantiles disordered: p50=%g p99=%g max=%g", name, h.Quantile(0.5), h.Quantile(0.99), h.Max)
		}
	}
	restores, remote := snap.Counter("yarn.restores"), snap.Counter("yarn.restores.remote")
	if int(restores) != r.Restores || int(remote) != r.RemoteRestores || remote > restores {
		t.Errorf("restore counters %d (%d remote), Result %d (%d remote)",
			restores, remote, r.Restores, r.RemoteRestores)
	}
	if h := snap.Hist("yarn.overhead.estimate.relerr"); h.Count == 0 {
		t.Error("no estimated-vs-actual overhead error observations")
	}

	// The trace must serialize to valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) <= len(spans) {
		t.Errorf("trace has %d events for %d spans; metadata records missing", len(doc.TraceEvents), len(spans))
	}
}

// TestObservedRunSharedRegistry: a caller-supplied registry is used in
// place of a private one, and what the Result reports twice it reads from
// that registry's series — identities, not mirrors: Result.Metrics is its
// snapshot and Result.SLO its SLO view, and the injector counts its
// faults.injected.<mode> series in it.
func TestObservedRunSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := chaosConfig()
	cfg.Metrics = reg
	cfg.Faults = &faults.Plan{Seed: 3, RPCErrorRate: 0.1, NameNodeErrorRate: 0.05, CreateFailRate: 0.3}
	jobs := mixedWorkload(t)
	r, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counter("yarn.tasks.completed"); got != int64(r.TasksCompleted) {
		t.Errorf("shared registry yarn.tasks.completed = %d, Result.TasksCompleted = %d", got, r.TasksCompleted)
	}

	if got := reg.SLO().Snapshot(); !reflect.DeepEqual(r.SLO, got) {
		t.Errorf("Result.SLO = %+v, the registry's view = %+v", r.SLO, got)
	}
	if r.SLO.CheckpointDecisions == 0 || r.SLO.Response["all"].Count != int64(len(jobs)) || r.SLO.WasteCoreHours == 0 {
		t.Errorf("the run fed the SLO series nothing worth comparing: %+v", r.SLO)
	}

	var modes []string
	for name := range reg.Snapshot().Counters {
		if mode, ok := strings.CutPrefix(name, "faults.injected."); ok {
			modes = append(modes, mode)
		}
	}
	if len(modes) < 2 {
		t.Fatalf("shared registry counted faults of modes %v, want at least two", modes)
	}
}
