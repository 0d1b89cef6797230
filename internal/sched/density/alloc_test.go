package density

import (
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// GIVEN the repo benchmark's two simulator shapes, the basic policy at 1k
// nodes / 50k tasks and the adaptive one at 100 nodes / 5k tasks,
// WHEN a cell runs end to end, generator included,
// THEN it makes at most two allocations per task. A task's submission and
// completion are views of its record, the records are one slab, and a
// submission is queued without a timer record, so what is left is the one
// handle timer of each run (≈ 1.15 a task on the 1k cell) and a closure
// for each dump and restore. Going back to a closure and a timer record per
// event breaks the bound.
func TestRunAllocatesAtMostTwicePerTask(t *testing.T) {
	for _, sp := range []Spec{
		{Name: "1k-nodes", Seed: 1, Nodes: 1_000, Tasks: 50_000},
		{Name: "adaptive-100", Seed: 21, Nodes: 100, Tasks: 5_000, Policy: core.PolicyAdaptive, Storage: storage.SSD},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := Run(sp); err != nil {
				t.Fatal(err)
			}
		})
		if perTask := allocs / float64(sp.Tasks); perTask > 2 {
			t.Errorf("%s: %.0f allocations, %.2f per task; want at most 2", sp.Name, allocs, perTask)
		} else {
			t.Logf("%s: %.0f allocations, %.2f per task", sp.Name, allocs, perTask)
		}
	}
}
