package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// GIVEN n independent items and any -parallel request,
// WHEN ForEachIndex runs them,
// THEN every index runs exactly once — failures do not short-circuit the
// fan-out — and the error returned is the lowest-indexed one, so the
// outcome does not depend on how the workers interleave.
func TestForEachIndex(t *testing.T) {
	for _, parallel := range []int{-1, 0, 1, 4, 100} {
		const n = 37
		var ran [n]atomic.Int32
		err := ForEachIndex(n, parallel, func(i int) error {
			ran[i].Add(1)
			if i == 3 || i == 11 {
				return fmt.Errorf("item %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3 failed" {
			t.Errorf("parallel=%d: got %v, want the lowest-indexed failure", parallel, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("parallel=%d: index %d ran %d times", parallel, i, got)
			}
		}
	}
	if err := ForEachIndex(0, 4, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func TestWorkers(t *testing.T) {
	for _, tc := range []struct{ parallel, n, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{100, 10, 10},
		{0, 1 << 20, runtime.GOMAXPROCS(0)},
		{-3, 1 << 20, runtime.GOMAXPROCS(0)},
		{0, 0, 0},
	} {
		if got := Workers(tc.parallel, tc.n); got != tc.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", tc.parallel, tc.n, got, tc.want)
		}
	}
}
