package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/lint"
	"preemptsched/internal/obs"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestCatalogMatchesBenchmarkJSON keeps the file the driver reads and the
// tables the program prints from in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command = %v, want %v", f.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(f.Paths, want) {
		t.Errorf("paths = %v, want %v", f.Paths, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, f.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []fileMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d = %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound %v, want %v (bounded %v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	same("end-to-end", f.EndToEnd, endToEnd, true)
	same("per-layer", f.PerLayer, perLayer, false)

	layerNames := make(map[string]bool)
	for _, d := range perLayer {
		layerNames[d.name] = true
	}
	for _, name := range exact {
		if !layerNames[name] {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

// TestSmoke runs every workload at smoke scale, once untraced and once
// traced, and checks what the full-size benchmark relies on: every named
// metric is emitted, finite and carries its unit, no op fails, the exact
// counts repeat across runs and do not depend on tracing, the span tree
// is well formed, and nothing is left running.
func TestSmoke(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	counted := make(map[string]bool) // exact counts some workload reports
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 7, window: 50 * time.Millisecond, smoke: true}
			plain, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			o.traceOut = filepath.Join(t.TempDir(), "trace.json")
			traced, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}

			for _, rp := range []*report{plain, traced} {
				if rp.failed != 0 || rp.ops < minOps {
					t.Errorf("%d ops, %d failed", rp.ops, rp.failed)
				}
			}
			if want := min(traced.ops/2, maxTraced); traced.traced != want {
				t.Errorf("%d of %d ops traced, want every second one up to %d", traced.traced, traced.ops, maxTraced)
			}
			if !reflect.DeepEqual(plain.exact, traced.exact) {
				t.Errorf("exact counts depend on the run or on tracing:\n untraced %v\n traced   %v", plain.exact, traced.exact)
			}

			res, err := resultOf(plain, false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}
			res, err = resultOf(traced, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			for name := range traced.layer {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("workload computes %s, which is not in the per-layer catalog", name)
				}
			}
			for name, v := range traced.exact {
				counted[name] = true
				if got := res.Metrics[name].Value; got != v {
					t.Errorf("%s reported as %v, counted %v", name, got, v)
				}
			}

			if err := checkTree(traced.spans); err != nil {
				t.Errorf("span tree: %v", err)
			}
			roots := 0
			for _, s := range traced.spans {
				if s.Name == "op" {
					roots++
				}
			}
			if roots != traced.traced {
				t.Errorf("%d op spans for %d traced ops", roots, traced.traced)
			}
			raw, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(file.TraceEvents) < len(traced.spans) {
				t.Errorf("trace file holds %d events for %d spans", len(file.TraceEvents), len(traced.spans))
			}
		})
	}
	want := make(map[string]bool)
	for _, name := range exact {
		want[name] = true
	}
	if !reflect.DeepEqual(counted, want) {
		t.Errorf("workloads count %v, the catalog lists %v as exact", counted, want)
	}
	// Closed connections' handler goroutines need a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, catalog has %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not emitted", d.name)
			continue
		}
		if m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, m.Value, m.Unit, d.unit)
		}
	}
}

// TestSelfTime pins the ladder's definition of self time: a span's
// duration minus the union of its children, overlapping children merged.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 10 * ms, End: 20 * ms},
	}
	st := analyse(spans)
	for name, want := range map[string]float64{"op": 50, "a": 20, "b": 30, "c": 10} {
		if got := st.self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v ms", name, got, want)
		}
	}
	if err := checkTree(spans[:2]); err != nil {
		t.Errorf("nested spans rejected: %v", err)
	}
	escaped := append([]obs.Span(nil), spans[:2]...)
	escaped[1].End = 101 * ms
	if err := checkTree(escaped); err == nil {
		t.Error("a child ending after its parent passed the tree check")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestJitter: one seed, one input; the generated trace is left untouched.
func TestJitter(t *testing.T) {
	base := []cluster.JobSpec{{ID: 1, Tasks: []cluster.TaskSpec{
		{Duration: time.Hour, MemFootprint: 1 << 30},
		{Duration: time.Minute, MemFootprint: 1 << 20},
	}}}
	a, b, c := jitter(base, 3), jitter(base, 3), jitter(base, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same input")
	}
	if base[0].Tasks[0].Duration != time.Hour {
		t.Error("jitter changed the trace it was given")
	}
	for i, task := range a[0].Tasks {
		orig := base[0].Tasks[i]
		if d := math.Abs(float64(task.Duration-orig.Duration)) / float64(orig.Duration); d > jitterShare {
			t.Errorf("task %d: duration moved by %.3f, more than %.3f", i, d, jitterShare)
		}
		if task.MemFootprint > orig.MemFootprint || float64(task.MemFootprint) < float64(orig.MemFootprint)*(1-jitterShare) {
			t.Errorf("task %d: footprint %d outside (1-%v, 1] of %d", i, task.MemFootprint, jitterShare, orig.MemFootprint)
		}
	}
}

// TestLintClean holds this package to the repository's own analyzers.
// bench is a module of its own, so the tree-wide TestRepoIsLintClean does
// not load it.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source; skipped in -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	modPath, err := lint.ModulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := lint.NewLoader(root, modPath).LoadDir(filepath.Join(root, "bench"), modPath+"/bench")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Unit{unit}, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
