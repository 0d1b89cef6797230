// Benchmarks: one target per table and figure of the paper's evaluation,
// as indexed in DESIGN.md. Each benchmark regenerates its artifact through
// the experiment harness; -benchtime=1x regenerates the whole evaluation
// once. Reported ns/op is the cost of reproducing the experiment, and the
// custom metrics surface the headline quantity each figure reports.
//
// Underlying simulator/framework runs are memoized within the process
// (several figures share runs), so with -benchtime above 1x only the
// first iteration pays the real cost; the reported custom metrics are
// identical either way.
package preemptsched_test

import (
	"io"
	"runtime"
	"strconv"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/experiments"
	"preemptsched/internal/metrics"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// benchOptions shrinks the inputs so the full suite completes in tens of
// seconds. Run cmd/experiments -scale paper for paper-sized inputs.
func benchOptions() experiments.Options {
	o := experiments.Default()
	o.TraceTasks = 12_000
	o.SimJobs = 300
	o.SimTasksPerJob = 5
	o.YarnJobs = 10
	o.YarnTasks = 120
	return o
}

func benchTable(b *testing.B, f func(experiments.Options) (*metrics.Table, error)) *metrics.Table {
	b.Helper()
	var tb *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = f(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tb.Rows) == 0 {
		b.Fatal("experiment produced an empty table")
	}
	return tb
}

func cellF(b *testing.B, tb *metrics.Table, r, c int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tb.Rows[r][c], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d)=%q: %v", r, c, tb.Rows[r][c], err)
	}
	return v
}

func BenchmarkFig1aPreemptionTimeline(b *testing.B) {
	tb := benchTable(b, experiments.Fig1a)
	b.ReportMetric(float64(len(tb.Rows)), "days")
}

func BenchmarkFig1bPreemptionByPriority(b *testing.B) {
	tb := benchTable(b, experiments.Fig1b)
	b.ReportMetric(cellF(b, tb, 0, 1)+cellF(b, tb, 1, 1), "pct_low_prio_preemptions")
}

func BenchmarkFig1cPreemptionFrequency(b *testing.B) {
	tb := benchTable(b, experiments.Fig1c)
	b.ReportMetric(cellF(b, tb, 0, 1), "tasks_evicted_once")
}

func BenchmarkTable1PriorityBands(b *testing.B) {
	tb := benchTable(b, experiments.Table1)
	b.ReportMetric(cellF(b, tb, 3, 2), "overall_preempt_pct")
}

func BenchmarkTable2LatencyClasses(b *testing.B) {
	tb := benchTable(b, experiments.Table2)
	b.ReportMetric(cellF(b, tb, 0, 2), "class0_preempt_pct")
}

func BenchmarkFig2aLocalCheckpoint(b *testing.B) {
	tb := benchTable(b, experiments.Fig2a)
	last := len(tb.Rows) - 1
	b.ReportMetric(cellF(b, tb, last, 1), "hdd_10gb_seconds")
	b.ReportMetric(cellF(b, tb, last, 3), "nvm_10gb_seconds")
}

func BenchmarkFig2bDFSCheckpoint(b *testing.B) {
	tb := benchTable(b, experiments.Fig2b)
	last := len(tb.Rows) - 1
	b.ReportMetric(cellF(b, tb, last, 1), "hdd_10gb_seconds")
}

func BenchmarkFig3aResourceWastage(b *testing.B) {
	tb := benchTable(b, experiments.Fig3a)
	b.ReportMetric(cellF(b, tb, 0, 2), "kill_waste_pct")
	b.ReportMetric(cellF(b, tb, 3, 2), "chk_nvm_waste_pct")
}

func BenchmarkFig3bEnergy(b *testing.B) {
	tb := benchTable(b, experiments.Fig3b)
	b.ReportMetric(cellF(b, tb, 0, 1), "kill_kwh")
	b.ReportMetric(cellF(b, tb, 3, 1), "chk_nvm_kwh")
}

func BenchmarkFig3cResponseTimes(b *testing.B) {
	tb := benchTable(b, experiments.Fig3c)
	b.ReportMetric(cellF(b, tb, 3, 1), "nvm_low_norm_resp")
}

func BenchmarkFig4Sensitivity(b *testing.B) {
	var err error
	var high *metrics.Table
	for i := 0; i < b.N; i++ {
		high, _, _, err = experiments.Fig4(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cellF(b, high, 0, 3), "chk_high_norm_at_1gbs")
	b.ReportMetric(cellF(b, high, len(high.Rows)-1, 3), "chk_high_norm_at_5gbs")
}

func BenchmarkTable3Incremental(b *testing.B) {
	tb := benchTable(b, experiments.Table3)
	b.ReportMetric(cellF(b, tb, 0, 1), "hdd_full_seconds")
	b.ReportMetric(cellF(b, tb, 0, 2), "hdd_incr_seconds")
}

func BenchmarkFig5Adaptive(b *testing.B) {
	tb := benchTable(b, experiments.Fig5)
	b.ReportMetric(cellF(b, tb, 1, 2), "hdd_adaptive_low_norm")
}

func BenchmarkFig6AdaptiveSensitivity(b *testing.B) {
	var err error
	var high *metrics.Table
	for i := 0; i < b.N; i++ {
		high, _, _, err = experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cellF(b, high, 0, 4), "adaptive_high_norm_at_1gbs")
}

func BenchmarkFig8aYARNWastage(b *testing.B) {
	tb := benchTable(b, experiments.Fig8a)
	b.ReportMetric(cellF(b, tb, 0, 2), "kill_waste_pct")
	b.ReportMetric(cellF(b, tb, 3, 2), "chk_nvm_waste_pct")
}

func BenchmarkFig8bYARNEnergy(b *testing.B) {
	tb := benchTable(b, experiments.Fig8b)
	b.ReportMetric(cellF(b, tb, 0, 1), "kill_kwh")
	b.ReportMetric(cellF(b, tb, 3, 1), "chk_nvm_kwh")
}

func BenchmarkFig8cYARNResponse(b *testing.B) {
	tb := benchTable(b, experiments.Fig8c)
	b.ReportMetric(cellF(b, tb, 0, 1), "kill_low_resp_s")
	b.ReportMetric(cellF(b, tb, 3, 1), "chk_nvm_low_resp_s")
}

func BenchmarkFig9ResponseCDF(b *testing.B) {
	tb := benchTable(b, experiments.Fig9)
	b.ReportMetric(cellF(b, tb, len(tb.Rows)/2, 1), "kill_median_resp_s")
}

func BenchmarkFig10AdaptiveYARN(b *testing.B) {
	tb := benchTable(b, experiments.Fig10)
	b.ReportMetric(cellF(b, tb, 0, 2), "hdd_basic_low_resp_s")
	b.ReportMetric(cellF(b, tb, 1, 2), "hdd_adaptive_low_resp_s")
}

func BenchmarkFig11AdaptiveCDF(b *testing.B) {
	var tables []*metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		tables, err = experiments.Fig11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(tables) != 3 {
		b.Fatalf("panels = %d", len(tables))
	}
	b.ReportMetric(float64(len(tables)), "panels")
}

func BenchmarkFig12aCPUOverhead(b *testing.B) {
	var cpuT *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		cpuT, _, err = experiments.Fig12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cellF(b, cpuT, 0, 1), "hdd_basic_cpu_pct")
	b.ReportMetric(cellF(b, cpuT, 0, 2), "hdd_adaptive_cpu_pct")
}

func BenchmarkFig12bIOOverhead(b *testing.B) {
	var ioT *metrics.Table
	var err error
	for i := 0; i < b.N; i++ {
		_, ioT, err = experiments.Fig12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cellF(b, ioT, 0, 1), "hdd_basic_io_pct")
	b.ReportMetric(cellF(b, ioT, 0, 2), "hdd_adaptive_io_pct")
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
