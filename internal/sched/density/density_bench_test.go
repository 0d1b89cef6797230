package density

import (
	"os"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// benchCell runs one density cell per b.N iteration and reports the
// sustained rates benchdiff gates on: decisions_per_sec is the
// BENCH_scale.json floor metric (higher is better), events_per_sec the
// raw event-loop throughput.
func benchCell(b *testing.B, sp Spec) {
	b.ReportAllocs()
	var decPerSec, evPerSec float64
	for i := 0; i < b.N; i++ {
		r, err := Run(sp)
		if err != nil {
			b.Fatal(err)
		}
		if r.Timing != nil {
			decPerSec += r.Timing.DecisionsPerSec
			evPerSec += r.Timing.EventsPerSec
		}
	}
	b.ReportMetric(decPerSec/float64(b.N), "decisions_per_sec")
	b.ReportMetric(evPerSec/float64(b.N), "events_per_sec")
}

// BenchmarkDensity1k is the CI-sized cell: 1k virtual nodes, 50k task
// events. It is the scale-smoke gate in .github/workflows/ci.yml.
func BenchmarkDensity1k(b *testing.B) {
	benchCell(b, Spec{Name: "1k-nodes", Seed: 1, Nodes: 1_000, Tasks: 50_000})
}

// The 5k and 10k cells take minutes at the pre-optimization throughput;
// they only run when DENSITY_FULL=1 (the BENCH_scale.json recording
// path — see DESIGN.md §16).
func fullOnly(b *testing.B) {
	if os.Getenv("DENSITY_FULL") == "" {
		b.Skip("set DENSITY_FULL=1 to run the large density cells")
	}
}

func BenchmarkDensity5k(b *testing.B) {
	fullOnly(b)
	benchCell(b, Spec{Name: "5k-nodes", Seed: 1, Nodes: 5_000, Tasks: 500_000})
}

// BenchmarkDensity10k is the headline config: 10k virtual nodes, ~1M
// task events.
func BenchmarkDensity10k(b *testing.B) {
	fullOnly(b)
	benchCell(b, Spec{Name: "10k-nodes", Seed: 1, Nodes: 10_000, Tasks: 1_000_000})
}

// BenchmarkDensityAdaptive is the repo benchmark's `sim-adaptive` shape:
// the paper's own policy (Alg. 1, cost-aware eviction, Alg. 2) on 100
// nodes / 5k tasks. scale-smoke floors its rate beside Density1k so the
// adaptive victim scan cannot quietly fall back behind the basic path.
func BenchmarkDensityAdaptive(b *testing.B) {
	benchCell(b, Spec{Name: "adaptive-100", Seed: 21, Nodes: 100, Tasks: 5_000, Policy: core.PolicyAdaptive, Storage: storage.SSD})
}
