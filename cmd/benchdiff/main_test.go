package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: preemptsched
BenchmarkRunAllSequential 	       1	4000000000 ns/op	         1.000 gomaxprocs
BenchmarkRunAll-8         	       1	1000000000 ns/op	         8.000 gomaxprocs
BenchmarkFig3a            	       2	 123456789 ns/op	        12.30 kill_waste_pct	     1024 B/op	      10 allocs/op
PASS
ok  	preemptsched	5.1s
`

func TestParseBench(t *testing.T) {
	benchmarks, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benchmarks))
	}
	seq := benchmarks[0]
	if seq.Name != "BenchmarkRunAllSequential" || seq.Iters != 1 || seq.NsPerOp != 4e9 {
		t.Errorf("sequential line parsed as %+v", seq)
	}
	if seq.Metrics["gomaxprocs"] != 1 {
		t.Errorf("custom metric lost: %+v", seq.Metrics)
	}
	par := benchmarks[1]
	if par.Name != "BenchmarkRunAll" || par.Procs != 8 {
		t.Errorf("GOMAXPROCS suffix mishandled: %+v", par)
	}
	fig := benchmarks[2]
	if fig.Metrics["kill_waste_pct"] != 12.30 {
		t.Errorf("figure metric lost: %+v", fig.Metrics)
	}
	if _, ok := fig.Metrics["B/op"]; ok {
		t.Error("allocation units recorded as custom metrics")
	}
}

func emitTo(t *testing.T, dir, name, text string) string {
	t.Helper()
	in := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, name+".json")
	if err := emitSnapshot(out, name, in); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEmitAndCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := emitTo(t, dir, "base", benchOutput)

	snap, err := loadSnapshot(base)
	if err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != 1 || len(snap.Benchmarks) != 3 || snap.Label != "base" {
		t.Fatalf("snapshot = %+v", snap)
	}
	for i := 1; i < len(snap.Benchmarks); i++ {
		if snap.Benchmarks[i-1].Name > snap.Benchmarks[i].Name {
			t.Fatal("snapshot benchmarks not sorted by name")
		}
	}

	// Identical run: no regression at any threshold.
	cur := emitTo(t, dir, "same", benchOutput)
	if err := compare(base, cur, cmpOpts{maxRegress: 0.20, metricTol: 1e-6, strictMetrics: true}); err != nil {
		t.Errorf("identical snapshots failed compare: %v", err)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	base := emitTo(t, dir, "base", benchOutput)
	slower := strings.Replace(benchOutput, "123456789 ns/op", "999999999 ns/op", 1)
	cur := emitTo(t, dir, "slow", slower)
	err := compare(base, cur, cmpOpts{maxRegress: 0.20, metricTol: 1e-6})
	if err == nil || !strings.Contains(err.Error(), "BenchmarkFig3a") {
		t.Errorf("8x slowdown not flagged: %v", err)
	}
	// A generous threshold lets the same snapshot through.
	if err := compare(base, cur, cmpOpts{maxRegress: 10.0, metricTol: 1e-6}); err != nil {
		t.Errorf("compare failed under 10x allowance: %v", err)
	}
}

func TestCompareMetricDriftStrict(t *testing.T) {
	dir := t.TempDir()
	base := emitTo(t, dir, "base", benchOutput)
	drifted := strings.Replace(benchOutput, "12.30 kill_waste_pct", "14.70 kill_waste_pct", 1)
	cur := emitTo(t, dir, "drift", drifted)
	// Wall time unchanged: default mode reports drift but passes.
	if err := compare(base, cur, cmpOpts{maxRegress: 0.20, metricTol: 1e-6}); err != nil {
		t.Errorf("metric drift fatal without -strict-metrics: %v", err)
	}
	if err := compare(base, cur, cmpOpts{maxRegress: 0.20, metricTol: 1e-6, strictMetrics: true}); err == nil {
		t.Error("metric drift ignored under -strict-metrics")
	}
}

func TestEmitRejectsEmptyInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(in, []byte("PASS\nok preemptsched 0.1s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := emitSnapshot(filepath.Join(dir, "out.json"), "", in); err == nil {
		t.Error("emit accepted input without benchmark lines")
	}
}

func TestLoadSnapshotRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v9.json")
	data, _ := json.Marshal(Snapshot{SchemaVersion: 9})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path); err == nil {
		t.Error("unknown schema version accepted")
	}
}

const scaleOutput = `goos: linux
BenchmarkDensity1k 	       1	10000000000 ns/op	     13000 decisions_per_sec	     44000 events_per_sec
BenchmarkDensity10k	       1	99000000000 ns/op	      9000 decisions_per_sec	     30000 events_per_sec
PASS
`

func TestCompareScaleMode(t *testing.T) {
	dir := t.TempDir()
	base := emitTo(t, dir, "scale-base", scaleOutput)
	opts := func(ratio float64) cmpOpts {
		return cmpOpts{maxRegress: 0.20, metricTol: 1e-6, scale: true, minRateRatio: ratio}
	}

	cases := []struct {
		name    string
		mutate  func(string) string
		ratio   float64
		wantErr string // substring; empty means the compare must pass
	}{
		{
			name:   "identical rates pass",
			mutate: func(s string) string { return s },
			ratio:  0.9,
		},
		{
			name: "faster rates pass",
			mutate: func(s string) string {
				return strings.Replace(s, "13000 decisions_per_sec", "26000 decisions_per_sec", 1)
			},
			ratio: 0.9,
		},
		{
			name: "rate below floor fails",
			mutate: func(s string) string {
				return strings.Replace(s, "9000 decisions_per_sec", "4000 decisions_per_sec", 1)
			},
			ratio:   0.8,
			wantErr: "BenchmarkDensity10k: decisions_per_sec",
		},
		{
			name: "generous ratio absorbs a slow machine",
			mutate: func(s string) string {
				return strings.Replace(s, "9000 decisions_per_sec", "4000 decisions_per_sec", 1)
			},
			ratio: 0.25,
		},
		{
			name: "disappeared rate metric fails",
			mutate: func(s string) string {
				return strings.Replace(s, "13000 decisions_per_sec\t", "", 1)
			},
			ratio:   0.5,
			wantErr: "decisions_per_sec disappeared",
		},
		{
			name: "slower wall time alone passes in scale mode",
			mutate: func(s string) string {
				// ns/op quadruples but the rates hold: only the rate floor
				// gates throughput baselines.
				return strings.Replace(s, "10000000000 ns/op", "40000000000 ns/op", 1)
			},
			ratio: 0.9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := emitTo(t, dir, "scale-"+strings.ReplaceAll(tc.name, " ", "-"), tc.mutate(scaleOutput))
			err := compare(base, cur, opts(tc.ratio))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected failure: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCompareScaleRequiresRateMetrics(t *testing.T) {
	dir := t.TempDir()
	// benchOutput has no *_per_sec metrics: scale mode must refuse to
	// "pass" a comparison that gated nothing.
	base := emitTo(t, dir, "norates-base", benchOutput)
	cur := emitTo(t, dir, "norates-cur", benchOutput)
	err := compare(base, cur, cmpOpts{scale: true, minRateRatio: 0.5})
	if err == nil || !strings.Contains(err.Error(), "no *_per_sec") {
		t.Fatalf("scale compare without rate metrics: %v", err)
	}
}

func TestScaleBaselineFileParses(t *testing.T) {
	snap, err := loadSnapshot("../../BENCH_scale.json")
	if err != nil {
		t.Fatal(err)
	}
	rates := 0
	for _, b := range snap.Benchmarks {
		if !strings.HasPrefix(b.Name, "BenchmarkDensity") {
			t.Errorf("unexpected benchmark %q in scale baseline", b.Name)
		}
		for name := range b.Metrics {
			if isRateMetric(name) {
				rates++
			}
		}
	}
	if rates == 0 {
		t.Fatal("checked-in scale baseline carries no *_per_sec metrics")
	}
}

func TestBaselineFileParses(t *testing.T) {
	snap, err := loadSnapshot("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var hasSeq, hasPar bool
	for _, b := range snap.Benchmarks {
		switch b.Name {
		case "BenchmarkRunAllSequential":
			hasSeq = true
		case "BenchmarkRunAll":
			hasPar = true
		}
	}
	if !hasSeq || !hasPar {
		t.Error("checked-in baseline is missing the RunAll speedup pair")
	}
}
