package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a -parallel request over n independent items: zero or
// negative means one worker per available CPU, and no pool is wider than
// the work it has.
func Workers(parallel, n int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	return parallel
}

// ForEachIndex calls fn(i) for every i in [0, n) on Workers(parallel, n)
// goroutines — sequentially, on the caller's goroutine, when that is one.
// Workers claim indices from a shared counter and every index runs even
// when some fail, so a caller that has fn write slot i of a result slice
// gets output independent of how the goroutines interleave: the basis of
// the byte-identical-at-any--parallel contract (DESIGN.md §11). The error
// returned is the lowest-indexed one, the failure a sequential pass would
// have hit first.
func ForEachIndex(n, parallel int, fn func(i int) error) error {
	errs := make([]error, n)
	if workers := Workers(parallel, n); workers <= 1 {
		for i := range errs {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
