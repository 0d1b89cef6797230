package core

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes capped, jittered exponential retry delays: the schedule
// a Retrier paces itself with, so "how hard do we hammer a struggling
// server" is one formula instead of a per-call-site accident.
//
// The delay before retry attempt n (1-based) is Base<<(n-1), capped at
// Cap, plus up to one Base unit of uniform jitter. Full-window jitter
// would desynchronize better, but one-Base jitter preserves the DFS
// client's historical pacing exactly, and the cap is what matters under
// sustained overload: without it an exponential schedule quickly dwarfs
// any per-request deadline and the caller times out sleeping.
type Backoff struct {
	// Base is the delay before the first retry; zero or negative disables
	// sleeping entirely (retries go back-to-back).
	Base time.Duration
	// Cap bounds the exponential term; zero or negative means uncapped.
	Cap time.Duration
}

// Delay returns the pause before retry attempt (1-based). intn, when
// non-nil, supplies the jitter draw as a uniform integer in [0, n); pass
// a seeded source to keep a run deterministic, or nil for no jitter.
func (b Backoff) Delay(attempt int, intn func(n int64) int64) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	if attempt < 1 {
		attempt = 1
	}
	d := b.Base
	// Shift without overflowing: once past the cap (or 63 bits) the
	// exponential term saturates.
	for i := 1; i < attempt; i++ {
		if b.Cap > 0 && d >= b.Cap {
			break
		}
		if d > maxDuration/2 {
			d = maxDuration
			break
		}
		d <<= 1
	}
	if b.Cap > 0 && d > b.Cap {
		d = b.Cap
	}
	if intn != nil {
		d += time.Duration(intn(int64(b.Base) + 1))
	}
	return d
}

const maxDuration = time.Duration(1<<63 - 1)

// Sleep pauses for d or until ctx is cancelled, whichever comes first,
// returning ctx.Err on cancellation. It is the context-honoring
// replacement for time.Sleep in retry and poll loops: a draining daemon
// must not sit out a multi-second backoff before noticing shutdown.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retrier is the one retry loop every client path in the repo runs: the DFS
// client's RPC retries and its replica rounds, and the clusterd wire
// client's transport retries. It owns the attempt budget, the Backoff that
// paces it, and the seeded jitter source — seeded so a run's pacing replays,
// mutex-guarded because retries from several goroutines share one client.
// The clusterd client's Submit, whose pause also honors the server's
// retry-after hint, keeps its own loop and draws its delays from Delay.
type Retrier struct {
	// Attempts is the budget per operation, the first try included; below
	// one means one.
	Attempts int
	Backoff  Backoff

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetrier returns a retrier whose jitter draws replay from seed.
func NewRetrier(attempts int, b Backoff, seed int64) *Retrier {
	r := &Retrier{Attempts: attempts, Backoff: b}
	r.Seed(seed)
	return r
}

// Seed restarts the jitter source from seed.
func (r *Retrier) Seed(seed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng = rand.New(rand.NewSource(seed))
}

func (r *Retrier) intn(n int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Int63n(n)
}

// Delay returns the jittered pause before retry attempt (1-based).
func (r *Retrier) Delay(attempt int) time.Duration {
	return r.Backoff.Delay(attempt, r.intn)
}

// Do runs op until it succeeds, fails with an error retryable rejects (nil
// retries every error), or the budget is spent, pausing Delay between
// attempts, and returns op's last error. onRetry, when non-nil, observes
// each retry before its pause — callers hang their retry counters there.
//
// The first attempt always runs, cancelled context or not: the DFS clients
// of a service being aborted rely on it, so that a pending dump fails on
// its RPC and degrades to a kill instead of never being tried. A caller
// that must not start on a cancelled context checks ctx itself. From then
// on cancellation is honored before and during every pause — never mid-op —
// and surfaces op's own error, which says more than ctx.Err does.
func (r *Retrier) Do(ctx context.Context, retryable func(error) bool, onRetry func(), op func() error) error {
	err := op()
	for attempt := 1; attempt < r.Attempts; attempt++ {
		if err == nil || (retryable != nil && !retryable(err)) {
			break
		}
		if onRetry != nil {
			onRetry()
		}
		if Sleep(ctx, r.Delay(attempt)) != nil {
			break
		}
		err = op()
	}
	return err
}
