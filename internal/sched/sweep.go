package sched

import (
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
)

// RunSpec is one independent simulation in a sweep: a sized configuration
// and the jobs it executes. Specs must not share Jobs slices — the
// simulator takes pointers into the slice it is handed, so concurrent
// runs over one slice would couple otherwise-independent virtual clocks.
type RunSpec struct {
	Config Config
	Jobs   []cluster.JobSpec
}

// RunMany executes the given simulations, sharding them across up to
// parallel goroutines (parallel <= 0 uses one per available CPU; 1 runs
// sequentially). Each simulation remains single-threaded on its own
// virtual clock — parallelism exists only between runs, never inside
// one — so results[i] is byte-for-byte the result Run(specs[i]) would
// produce, in spec order, at every parallelism level.
//
// On failure RunMany returns the error of the lowest-indexed failing
// spec (the one a sequential sweep would hit first) alongside the
// results gathered so far; results[i] is nil for specs that failed.
func RunMany(specs []RunSpec, parallel int) ([]*Result, error) {
	results := make([]*Result, len(specs))
	err := core.ForEachIndex(len(specs), parallel, func(i int) (err error) {
		results[i], err = Run(specs[i].Config, specs[i].Jobs)
		return err
	})
	return results, err
}
