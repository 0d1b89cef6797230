package experiments

import (
	"runtime"

	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// The evaluation is a matrix of independent runs — (figure, policy,
// storage kind, scale) tuples that share nothing but the memoization
// layer. runParallel fans them out over core.ForEachIndex, the bounded
// index-claiming pool. Determinism is preserved by construction: which
// worker runs which task is arbitrary, but every task writes only its own
// result slot and all rendering happens sequentially in canonical index
// order afterwards. The only schedule-dependent quantity is wall time.

// runParallel executes tasks on up to workers goroutines. It returns the
// error of the lowest-indexed failing task, so the reported failure is
// the same one a sequential pass would have hit first, regardless of how
// the goroutines interleave. All tasks run to completion even when some
// fail — partial fan-outs would leave the memo cache warm for an
// unpredictable prefix, and cheap tasks are cheaper than schedule-shaped
// state.
func runParallel(workers int, tasks []func() error) error {
	return core.ForEachIndex(len(tasks), workers, func(i int) error { return tasks[i]() })
}

// workers resolves Options.Parallel: 0 means one worker per available
// CPU, 1 disables the pool, larger values cap the fan-out explicitly.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// policyKind names one underlying run of the shared matrix.
type policyKind struct {
	policy core.Policy
	kind   storage.Kind
}

// paperMatrix is the (policy, storage) set behind Figures 3/5 and 8-12:
// the kill baseline plus basic and adaptive checkpointing on each medium.
func paperMatrix() []policyKind {
	pairs := []policyKind{{core.PolicyKill, storage.SSD}}
	for _, kind := range storageKinds {
		pairs = append(pairs,
			policyKind{core.PolicyCheckpoint, kind},
			policyKind{core.PolicyAdaptive, kind})
	}
	return pairs
}

// killChkPairs is the kill-vs-basic-checkpointing subset (Fig. 3, 8, 9).
func killChkPairs() []policyKind {
	pairs := []policyKind{{core.PolicyKill, storage.SSD}}
	for _, kind := range storageKinds {
		pairs = append(pairs, policyKind{core.PolicyCheckpoint, kind})
	}
	return pairs
}

// basicAdaptivePairs is the basic-vs-adaptive subset (Fig. 5, 10, 12).
func basicAdaptivePairs() []policyKind {
	var pairs []policyKind
	for _, kind := range storageKinds {
		pairs = append(pairs,
			policyKind{core.PolicyCheckpoint, kind},
			policyKind{core.PolicyAdaptive, kind})
	}
	return pairs
}

// warmSim executes the given simulator runs through the pool so the
// sequential table assembly that follows hits the memo cache. Errors are
// deliberately dropped here: failed runs are not cached, so the
// sequential pass re-encounters the same deterministic error and reports
// it with its canonical figure label.
func warmSim(o Options, pairs []policyKind) {
	tasks := make([]func() error, len(pairs))
	for i, pk := range pairs {
		pk := pk
		tasks[i] = func() error {
			_, err := simRun(o, pk.policy, pk.kind)
			return err
		}
	}
	_ = runParallel(o.workers(), tasks)
}

// warmYarn is warmSim for the mini-YARN framework runs.
func warmYarn(o Options, pairs []policyKind) {
	tasks := make([]func() error, len(pairs))
	for i, pk := range pairs {
		pk := pk
		tasks[i] = func() error {
			_, err := yarnRun(o, pk.policy, pk.kind)
			return err
		}
	}
	_ = runParallel(o.workers(), tasks)
}

// warmAll fans the entire shared-run matrix — the Section 2 trace
// analysis plus every simulator and framework run the figures reuse —
// across one pool so RunAll's sequential rendering phase only ever reads
// the memo cache. One flat task list (rather than warmSim then warmYarn)
// keeps every worker busy until the global tail: the slowest run overlaps
// cheap ones instead of gating a phase barrier.
func warmAll(o Options) {
	var tasks []func() error
	tasks = append(tasks, func() error {
		_, err := o.traceAnalysis()
		return err
	})
	for _, pk := range paperMatrix() {
		pk := pk
		tasks = append(tasks, func() error {
			_, err := simRun(o, pk.policy, pk.kind)
			return err
		})
	}
	for _, pk := range paperMatrix() {
		pk := pk
		tasks = append(tasks, func() error {
			_, err := yarnRun(o, pk.policy, pk.kind)
			return err
		})
	}
	_ = runParallel(o.workers(), tasks)
}
