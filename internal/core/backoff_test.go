package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDelayExponentialAndCap(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond}
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
		8 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffDelayJitterBounded(t *testing.T) {
	b := Backoff{Base: time.Millisecond}
	intn := func(n int64) int64 { return n - 1 } // max jitter draw
	if got := b.Delay(1, intn); got != 2*time.Millisecond {
		t.Fatalf("max jitter delay = %v, want 2ms", got)
	}
	if got := b.Delay(1, func(int64) int64 { return 0 }); got != time.Millisecond {
		t.Fatalf("zero jitter delay = %v, want 1ms", got)
	}
}

func TestBackoffDelayZeroBase(t *testing.T) {
	if got := (Backoff{}).Delay(5, nil); got != 0 {
		t.Fatalf("zero-base delay = %v, want 0", got)
	}
}

func TestBackoffDelayNoOverflow(t *testing.T) {
	b := Backoff{Base: time.Hour}
	if got := b.Delay(200, nil); got <= 0 {
		t.Fatalf("uncapped huge attempt overflowed to %v", got)
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, time.Minute); err == nil {
		t.Fatal("Sleep on cancelled ctx returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled Sleep took %v", elapsed)
	}
}

// The Retrier contract, GIVEN/WHEN/THEN. Every client path in the repo
// retries through this one loop, so each caller's observable rule is pinned
// here or beside the caller (dfs: retry_test.go; clusterd: client_test.go).

// GIVEN an op that fails twice and then succeeds WHEN it runs under a budget
// of five THEN it is called three times and the result is success.
func TestRetryStopsOnSuccess(t *testing.T) {
	calls := 0
	err := NewRetrier(5, Backoff{}, 1).Do(context.Background(), nil, nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

// GIVEN an error the caller's classifier rejects WHEN the op returns it THEN
// it comes back from the first attempt, identity intact.
func TestRetryStopsOnPermanentError(t *testing.T) {
	permanent := errors.New("permanent")
	calls := 0
	err := NewRetrier(5, Backoff{}, 1).Do(context.Background(),
		func(err error) bool { return !errors.Is(err, permanent) }, nil,
		func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want permanent/1", err, calls)
	}
}

// GIVEN an op that always fails WHEN the budget is four THEN it runs four
// times, onRetry sees the three retries, and the last error is returned. A
// budget below one still buys the first attempt.
func TestRetryExhaustsBudget(t *testing.T) {
	transient := errors.New("transient")
	calls, retries := 0, 0
	err := NewRetrier(4, Backoff{}, 1).Do(context.Background(), nil,
		func() { retries++ },
		func() error { calls++; return transient })
	if !errors.Is(err, transient) {
		t.Fatalf("err = %v, want transient", err)
	}
	if calls != 4 || retries != 3 {
		t.Fatalf("calls=%d retries=%d, want 4/3", calls, retries)
	}
	calls = 0
	if err := NewRetrier(0, Backoff{}, 1).Do(context.Background(), nil, nil,
		func() error { calls++; return transient }); !errors.Is(err, transient) || calls != 1 {
		t.Fatalf("zero budget: err=%v calls=%d, want transient/1", err, calls)
	}
}

// GIVEN a context cancelled while the first backoff is pending WHEN the
// pause returns THEN no further attempt runs and the op's own error — not
// ctx.Err — is what surfaces.
func TestRetryCancelledBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	transient := errors.New("transient")
	calls := 0
	err := NewRetrier(100, Backoff{Base: time.Millisecond}, 1).Do(ctx, nil, nil, func() error {
		calls++
		cancel()
		return transient
	})
	if !errors.Is(err, transient) {
		t.Fatalf("err = %v, want the op's transient error", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (cancelled during first backoff)", calls)
	}
}

// GIVEN a context already cancelled WHEN Do is called THEN the first attempt
// still runs — exactly one, since the first pause is refused — and its
// result is the result. The DFS clients of an aborted service depend on it
// (a dump must fail on its RPC to degrade to a kill); the clusterd client,
// which must not start, checks its context itself
// (clusterd.TestDoRefusesCancelledContext).
func TestRetryFirstAttemptRunsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	if err := NewRetrier(3, Backoff{}, 1).Do(ctx, nil, nil, func() error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatalf("succeeding op: err=%v calls=%d, want nil/1", err, calls)
	}
	transient := errors.New("transient")
	calls = 0
	if err := NewRetrier(3, Backoff{}, 1).Do(ctx, nil, nil, func() error { calls++; return transient }); !errors.Is(err, transient) || calls != 1 {
		t.Fatalf("failing op: err=%v calls=%d, want transient/1", err, calls)
	}
}

// GIVEN two retriers with one seed WHEN each draws its delays THEN the
// sequences are equal, stay inside [schedule, schedule+Base], and a
// different seed draws a different one: pacing replays from the seed.
func TestRetrierDelayReplaysFromSeed(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond}
	a, same, other := NewRetrier(4, b, 7), NewRetrier(4, b, 1), NewRetrier(4, b, 8)
	same.Seed(7)
	differs := false
	for attempt := 1; attempt <= 16; attempt++ {
		d := a.Delay(attempt)
		if floor := b.Delay(attempt, nil); d < floor || d > floor+b.Base {
			t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, floor, floor+b.Base)
		}
		if s := same.Delay(attempt); s != d {
			t.Fatalf("Delay(%d): %v vs %v from the same seed", attempt, d, s)
		}
		differs = differs || other.Delay(attempt) != d
	}
	if !differs {
		t.Error("sixteen delays from seeds 7 and 8 are identical: the seed does not reach the jitter")
	}
}
