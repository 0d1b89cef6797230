package density

import (
	"strings"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// testCells is a small mixed ladder: different seeds, policies, and
// storage devices, so the worker pool has genuinely heterogeneous work to
// interleave.
func testCells(t *testing.T) []Spec {
	tasks := 2500
	if testing.Short() {
		tasks = 800
	}
	return []Spec{
		{Name: "a", Seed: 11, Nodes: 40, Tasks: tasks},
		{Name: "b", Seed: 12, Nodes: 25, Tasks: tasks, Policy: core.PolicyAdaptive, Storage: storage.NVM},
		{Name: "c", Seed: 13, Nodes: 60, Tasks: tasks, Policy: core.PolicyKill},
		{Name: "d", Seed: 14, Nodes: 32, Tasks: tasks, Storage: storage.HDD, LoadFactor: 1.6},
	}
}

// runCells runs the cells over core.ForEachIndex, as `experiments
// density` does, each into its own slot.
func runCells(t *testing.T, cells []Spec, parallel int) []*CellResult {
	t.Helper()
	results := make([]*CellResult, len(cells))
	err := core.ForEachIndex(len(cells), parallel, func(i int) (err error) {
		results[i], err = Run(cells[i])
		return err
	})
	if err != nil {
		t.Fatalf("parallel=%d: %v", parallel, err)
	}
	return results
}

// renderStable runs the ladder at the given pool parallelism and renders
// only the deterministic fields (Timing stripped), the §11 comparison
// unit.
func renderStable(t *testing.T, parallel int) string {
	t.Helper()
	results := runCells(t, testCells(t), parallel)
	for _, r := range results {
		r.Timing = nil
	}
	var sb strings.Builder
	Render(&sb, results, false)
	return sb.String()
}

// TestDeterminismAcrossParallelism is the density suite's §11 contract:
// the rendered deterministic report is byte-identical whether the cells
// run sequentially or on a contended 4- or 8-worker pool. Run under
// -race, the concurrent legs also prove the worker pool shares nothing
// between engine instances.
func TestDeterminismAcrossParallelism(t *testing.T) {
	base := renderStable(t, 1)
	if !strings.Contains(base, "cell a") || !strings.Contains(base, "cell d") {
		t.Fatalf("stable render missing cells:\n%s", base)
	}
	for _, parallel := range []int{4, 8} {
		if got := renderStable(t, parallel); got != base {
			t.Errorf("parallel=%d output diverged from sequential run\n-- sequential --\n%s\n-- parallel=%d --\n%s",
				parallel, base, parallel, got)
		}
	}
}

// TestDeterminismSeedSensitivity guards the guard: a different seed must
// change the report, or the byte-compare above would pass vacuously.
func TestDeterminismSeedSensitivity(t *testing.T) {
	cells := testCells(t)[:1]
	a := runCells(t, cells, 1)
	cells[0].Seed++
	b := runCells(t, cells, 1)
	a[0].Timing, b[0].Timing = nil, nil
	var sa, sb strings.Builder
	Render(&sa, a, false)
	Render(&sb, b, false)
	if sa.String() == sb.String() {
		t.Fatal("changing the seed did not change the deterministic report")
	}
}
