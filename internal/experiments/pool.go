package experiments

import (
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// The evaluation is a matrix of independent runs — (figure, policy,
// storage kind, scale) tuples that share nothing but the memoization
// layer. prefetch fans them out over core.ForEachIndex, the bounded
// index-claiming pool, Options.Parallel wide. Determinism is preserved by
// construction: which worker runs which task is arbitrary, but every task
// writes only its own result slot and all rendering happens sequentially
// in canonical index order afterwards. The only schedule-dependent
// quantity is wall time.

// paperMatrix is the (policy, storage) set behind Figures 3/5 and 8-12:
// the kill baseline, then basicAdaptivePairs.
func paperMatrix() []policyKind {
	return append([]policyKind{{core.PolicyKill, storage.SSD}}, basicAdaptivePairs()...)
}

// basicPairs is basic checkpointing on each medium, in storageKinds
// order.
func basicPairs() []policyKind {
	var pairs []policyKind
	for _, kind := range storageKinds {
		pairs = append(pairs, policyKind{core.PolicyCheckpoint, kind})
	}
	return pairs
}

// killChkPairs is the kill-vs-basic-checkpointing subset (Fig. 3, 8, 9):
// the kill baseline, then basicPairs.
func killChkPairs() []policyKind {
	return append([]policyKind{{core.PolicyKill, storage.SSD}}, basicPairs()...)
}

// basicAdaptivePairs is the basic-vs-adaptive subset (Fig. 5, 10, 12):
// per medium in storageKinds order, basic then adaptive.
func basicAdaptivePairs() []policyKind {
	var pairs []policyKind
	for _, kind := range storageKinds {
		pairs = append(pairs,
			policyKind{core.PolicyCheckpoint, kind},
			policyKind{core.PolicyAdaptive, kind})
	}
	return pairs
}

// label is the run's name in the paper's legends.
func (pk policyKind) label() string {
	if pk.policy == core.PolicyKill {
		return "Kill"
	}
	return "Chk-" + pk.kind.String()
}

// traceStudy is what the Section 2 figures read.
var traceStudy = []request{{}}

// on lists pairs as requests for their runs on s.
func on(s substrate, pairs []policyKind) []request {
	reqs := make([]request, len(pairs))
	for i, pk := range pairs {
		reqs[i] = request{s, pk}
	}
	return reqs
}

// prefetch executes the requests through the pool, each distinct one
// once, so the sequential table assembly that follows hits the memo
// cache. One flat list keeps every worker busy until the global tail: the
// slowest run overlaps cheap ones instead of gating a phase barrier. Every
// request runs even when some fail — a partial fan-out would leave the
// memo cache warm for an unpredictable prefix, and cheap runs are cheaper
// than schedule-shaped state. Errors are deliberately dropped here: failed
// runs are not cached, so the sequential pass re-encounters the same
// deterministic error and reports it with its canonical figure label.
func prefetch(o Options, reqs []request) {
	var distinct []request
	queued := make(map[request]bool)
	for _, r := range reqs {
		if !queued[r] {
			queued[r] = true
			distinct = append(distinct, r)
		}
	}
	_ = core.ForEachIndex(len(distinct), o.Parallel, func(i int) (err error) {
		if r := distinct[i]; r.s == 0 {
			_, err = o.traceAnalysis()
		} else {
			_, err = r.run(o)
		}
		return err
	})
}

// fetch returns the outcomes of pairs on s, in pair order, running the
// ones not yet memoized through the pool.
func fetch(o Options, s substrate, pairs []policyKind) ([]*core.Outcome, error) {
	reqs := on(s, pairs)
	prefetch(o, reqs)
	runs := make([]*core.Outcome, len(reqs))
	for i, r := range reqs {
		var err error
		if runs[i], err = r.run(o); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

// warmAll fans out everything the catalog's figures read — the trace
// analysis plus every shared simulator and framework run — so RunAll's
// sequential rendering phase only ever reads the memo cache.
func warmAll(o Options) {
	var reqs []request
	for _, f := range Catalog {
		reqs = append(reqs, f.reads...)
	}
	prefetch(o, reqs)
}
