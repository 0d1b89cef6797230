package sched

import (
	"reflect"
	"testing"

	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// sweepSpecs builds a small policy × bandwidth grid. Every spec gets its
// own Jobs slice — RunSpec's documented contract — because the simulator
// writes through pointers into the slice it is handed.
func sweepTestSpecs() []RunSpec {
	var specs []RunSpec
	for _, policy := range []core.Policy{core.PolicyWait, core.PolicyKill, core.PolicyCheckpoint} {
		for _, bw := range []float64{5e8, 1e9, 2e9} {
			cfg := oneCoreConfig(policy, storage.SSD)
			cfg.CustomBandwidth = bw
			specs = append(specs, RunSpec{Config: cfg, Jobs: twoJobScenario()})
		}
	}
	return specs
}

// GIVEN a grid of independent simulations,
// WHEN they fan out over core.ForEachIndex, each writing its own slot,
// THEN every result equals the sequential Run of its spec at every
// parallelism level: the runs share no state. (The lowest-indexed error
// and the empty range are core.TestForEachIndex's.)
func TestParallelRunsMatchSequential(t *testing.T) {
	want := make([]*Result, 0, 9)
	for i, spec := range sweepTestSpecs() {
		r, err := Run(spec.Config, spec.Jobs)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want = append(want, r)
	}
	for _, parallel := range []int{1, 4} {
		// Each level gets fresh Jobs: a run writes through its own.
		specs := sweepTestSpecs()
		got := make([]*Result, len(specs))
		err := core.ForEachIndex(len(specs), parallel, func(i int) (err error) {
			got[i], err = Run(specs[i].Config, specs[i].Jobs)
			return err
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("parallel=%d spec %d: result differs from sequential Run", parallel, i)
			}
		}
	}
}
