package experiments

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"preemptsched/internal/core"
)

func TestValidateRejectsNegativeParallel(t *testing.T) {
	o := Default()
	o.Parallel = -1
	if err := o.Validate(); err == nil {
		t.Error("Parallel=-1 validated")
	}
}

// TestMemoSingleflight pins the cache contract the pool depends on: one
// execution per key under concurrency, errors propagated to every waiter
// but never cached.
func TestMemoSingleflight(t *testing.T) {
	var c memo[int, int]
	var calls atomic.Int32
	err := core.ForEachIndex(50, 8, func(int) error {
		v, err := c.do(7, func() (int, error) {
			calls.Add(1)
			return 42, nil
		})
		if err != nil || v != 42 {
			return fmt.Errorf("do = %d, %v", v, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("function ran %d times for one key, want 1", got)
	}
}

func TestMemoErrorNotCached(t *testing.T) {
	var c memo[string, int]
	boom := errors.New("boom")
	fail := true
	fn := func() (int, error) {
		if fail {
			return 0, boom
		}
		return 9, nil
	}
	if _, err := c.do("k", fn); !errors.Is(err, boom) {
		t.Fatalf("first call: %v, want boom", err)
	}
	fail = false
	v, err := c.do("k", fn)
	if err != nil || v != 9 {
		t.Fatalf("retry after failure = %d, %v; want 9, nil (errors must not stick)", v, err)
	}
}
