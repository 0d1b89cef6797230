// Benchmarks of the module root: the cold wall time of the whole
// evaluation (what cmd/experiments does) at one worker and at one per CPU,
// and the flight recorder's cost on a contended mini-YARN run. Whether the
// evaluation still reproduces the paper is the fidelity table's question
// (fidelity_test.go), not these benchmarks'.
package preemptsched_test

import (
	"io"
	"runtime"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/experiments"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// benchOptions shrinks the inputs so one cold evaluation completes in a
// few seconds. Run cmd/experiments -scale paper for paper-sized inputs.
func benchOptions() experiments.Options {
	o := experiments.Default()
	o.TraceTasks = 12_000
	o.SimJobs = 300
	o.SimTasksPerJob = 5
	o.YarnJobs = 10
	o.YarnTasks = 120
	return o
}

// benchRunAll regenerates the entire evaluation at the given pool width.
// Each iteration drops the memo cache first, so ns/op is the true cost
// of a cold full evaluation — the quantity BENCH_baseline.json tracks
// and cmd/benchdiff gates. The Sequential/parallel pair is the harness's
// own speedup benchmark: BenchmarkRunAll (one worker per CPU) against
// BenchmarkRunAllSequential (the pre-pool behaviour).
func benchRunAll(b *testing.B, parallel int) {
	o := benchOptions()
	o.Parallel = parallel
	for i := 0; i < b.N; i++ {
		experiments.ResetRunCache()
		if err := experiments.RunAll(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
}

func BenchmarkRunAllSequential(b *testing.B) { benchRunAll(b, 1) }

func BenchmarkRunAll(b *testing.B) { benchRunAll(b, 0) }

// benchYarnPreempt runs one contended mini-YARN workload (2 nodes × 8
// slots against 8 jobs / 240 tasks forces ~32 preemption decisions),
// optionally with the decision-provenance flight recorder attached — the
// always-on service-mode configuration.
func benchYarnPreempt(b *testing.B, record bool) {
	wc := workload.DefaultFacebookConfig()
	wc.Seed = 21
	wc.Jobs = 8
	wc.TotalTasks = 240
	jobs, err := workload.Facebook(wc)
	if err != nil {
		b.Fatal(err)
	}
	var records, preemptions uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
		cfg.Nodes = 2
		cfg.ContainersPerNode = 8
		var rec *obs.Recorder
		if record {
			rec = obs.NewRecorder(0, 0)
			cfg.Observer = rec
		}
		r, err := yarn.Run(cfg, jobs)
		if err != nil {
			b.Fatal(err)
		}
		preemptions = uint64(r.Preemptions)
		if record {
			records = rec.Seq()
		}
	}
	b.ReportMetric(float64(preemptions), "preemptions")
	if record {
		b.ReportMetric(float64(records), "journal_records")
	}
}

// The RecorderOff/RecorderOn pair is the flight recorder's overhead
// gate: BENCH_baseline.json carries both, so cmd/benchdiff catches the
// always-on journal path getting expensive relative to the bare run.
func BenchmarkYarnRecorderOff(b *testing.B) { benchYarnPreempt(b, false) }

func BenchmarkYarnRecorderOn(b *testing.B) { benchYarnPreempt(b, true) }
