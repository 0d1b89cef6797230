// Ablation benchmarks for the design choices DESIGN.md calls out: each
// runs the same workload with one mechanism enabled and disabled, and
// times the pair. What the mechanism moves is held by the ablation rows of
// the fidelity table (fidelity_test.go), which share these runs.
package preemptsched_test

import (
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

func ablationJobs(tb testing.TB) []cluster.JobSpec {
	tb.Helper()
	jobs, err := trace.GenerateJobs(trace.JobsConfig{Seed: 13, Jobs: 250, MeanTasksPerJob: 5, Span: 4 * time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	return jobs
}

// ablationRun simulates the ablation workload on 10 nodes under adaptive
// checkpointing on HDD, as mutate changes it.
func ablationRun(tb testing.TB, mutate func(*sched.Config)) *sched.Result {
	tb.Helper()
	jobs := ablationJobs(tb)
	cfg := sched.DefaultConfig(core.PolicyAdaptive, storage.HDD)
	cfg.Nodes = 10
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := sched.Run(cfg, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	if r.Preemptions == 0 {
		tb.Fatal("ablation workload produced no preemptions")
	}
	return r
}

// The ablated mechanisms, each as the change to ablationRun's
// configuration that disables or replaces it.
var (
	fullDumps          = func(c *sched.Config) { c.DisableIncremental = true }
	naiveVictims       = func(c *sched.Config) { c.NaiveVictimSelection = true }
	firstFitRestores   = func(c *sched.Config) { c.DisableRestorePlacement = true }
	onPMFS             = func(c *sched.Config) { c.StorageKind = storage.NVM }
	onNVRAM            = func(c *sched.Config) { c.StorageKind = storage.NVRAM }
	stopAndCopy        = func(c *sched.Config) { c.Policy = core.PolicyCheckpoint }
	preCopy            = func(c *sched.Config) { c.Policy, c.PreCopy = core.PolicyCheckpoint, true }
	killOnSSD          = func(c *sched.Config) { c.Policy, c.StorageKind = core.PolicyKill, storage.SSD }
	killOnSSDCappedAt2 = func(c *sched.Config) { killOnSSD(c); c.MaxEvictionsPerTask = 2 }
)

// benchAblation times one ablationRun per mutation per iteration.
func benchAblation(b *testing.B, mutations ...func(*sched.Config)) {
	for i := 0; i < b.N; i++ {
		for _, m := range mutations {
			ablationRun(b, m)
		}
	}
}

// BenchmarkAblationIncremental: incremental checkpointing (Section 4.1
// item 3) against full dumps on every re-preemption.
func BenchmarkAblationIncremental(b *testing.B) { benchAblation(b, nil, fullDumps) }

// BenchmarkAblationCostAwareEviction: cost-aware victim selection
// (Section 5.2.2) against naive priority-order eviction.
func BenchmarkAblationCostAwareEviction(b *testing.B) { benchAblation(b, nil, naiveVictims) }

// BenchmarkAblationRestorePlacement: Algorithm 2 (local vs remote restore
// choice) against first-fit placement.
func BenchmarkAblationRestorePlacement(b *testing.B) { benchAblation(b, nil, firstFitRestores) }

// BenchmarkAblationEvictionThreshold: the Cavdar-style capped-eviction
// baseline against unlimited preemption under the kill policy.
func BenchmarkAblationEvictionThreshold(b *testing.B) {
	benchAblation(b, killOnSSD, killOnSSDCappedAt2)
}

// BenchmarkAblationNVRAM: NVM as a file system (PMFS) against the paper's
// future-work NVM-as-virtual-memory mode.
func BenchmarkAblationNVRAM(b *testing.B) { benchAblation(b, onPMFS, onNVRAM) }

// BenchmarkAblationPreCopy: stop-and-copy checkpointing against the
// pre-copy (CRIU pre-dump) optimization.
func BenchmarkAblationPreCopy(b *testing.B) { benchAblation(b, stopAndCopy, preCopy) }

// BenchmarkAblationDisciplines: the three scheduling disciplines on one
// workload under adaptive checkpoint-based preemption.
func BenchmarkAblationDisciplines(b *testing.B) {
	var mutations []func(*sched.Config)
	for _, d := range []sched.Discipline{sched.DisciplinePriority, sched.DisciplineFairShare, sched.DisciplineCapacity} {
		mutations = append(mutations, func(c *sched.Config) { c.Discipline = d })
	}
	benchAblation(b, mutations...)
}
