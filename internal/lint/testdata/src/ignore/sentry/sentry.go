// Package sentry exercises //lint:ignore against the determinism-sentry
// analyzers: same-line coverage, a doc-comment directive that excuses
// nothing in the body below it, and the stale-directive diagnostic. The
// package impersonates internal/sched so randsrc is in scope.
package sentry

import "math/rand"

// pick draws from the global source under a same-line directive: the
// randsrc finding is suppressed.
func pick(n int) int {
	return rand.Intn(n) //lint:ignore randsrc exercising same-line suppression of a sentry analyzer
}

// keys returns map keys unsorted. A directive covers only its own line
// and the next, so the one in the doc comment does not reach the mapiter
// finding four lines into the body: the finding is reported, and the
// directive, which suppresses nothing, is reported stale.
//
//lint:ignore mapiter exercising the retired decl-level form: the consumer treats the result as a set
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// sliceSum reduces over a slice, which floatorder never flags: the
// trailing directive suppresses nothing and is reported stale.
func sliceSum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x //lint:ignore floatorder exercising the stale-directive diagnostic
	}
	return sum
}
