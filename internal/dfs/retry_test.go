package dfs

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"preemptsched/internal/obs"
)

// The DFS client's retry rules, GIVEN/WHEN/THEN. The loop itself is
// core.Retrier (contract: internal/core/backoff_test.go); these pin what the
// client's callers observe through it, which a change of loop must not move.

// GIVEN a client whose context is already cancelled WHEN it writes and reads
// a file on a healthy cluster THEN every operation succeeds: each gets its
// first attempt, context or not. yarn.Service.Abort relies on it — it
// cancels the clients' context first, and the dumps still pending must reach
// their RPC and fail there to degrade to kills, not be refused unstarted.
func TestCancelledContextStillGetsFirstAttempt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := testCluster(t, 3, 2)
	client := c.ClientAt(0, WithContext(ctx), WithBlockSize(256))
	data := randomData(1000)
	writeFile(t, client, "/aborting/file", data)
	if got := readFile(t, client, "/aborting/file"); !bytes.Equal(got, data) {
		t.Error("round trip under a cancelled context mismatched")
	}
	if st := client.Stats(); st != (ClientStats{}) {
		t.Errorf("recovery counters = %+v on a healthy cluster", st)
	}

	// A failing operation is tried once, its retry is refused at the pause,
	// and what surfaces is the operation's error.
	transient := errors.New("connection reset")
	attempts := 0
	err := client.retry(func() error { attempts++; return transient })
	if !errors.Is(err, transient) || errors.Is(err, context.Canceled) || attempts != 1 {
		t.Errorf("failing op under a cancelled context: err=%v attempts=%d, want the op's error after 1", err, attempts)
	}
}

// GIVEN an operation failing transiently under a schedule that would sleep
// for hours WHEN the context is cancelled during the first pause THEN the
// operation returns at once with its own last error, having run once.
func TestCancelledBackoffSurfacesLastError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	client := NewClient(nil, WithContext(ctx), WithRetry(5, time.Hour))
	transient := errors.New("connection reset")
	attempts := 0
	start := time.Now()
	err := client.retry(func() error {
		attempts++
		cancel()
		return transient
	})
	if !errors.Is(err, transient) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d, want the op's error after 1 attempt", err, attempts)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled backoff took %v", elapsed)
	}
	if got := client.Stats().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1: a retry is counted when it is decided, before its pause", got)
	}
}

// GIVEN every replica of a block down WHEN the block is read THEN the whole
// replica set is tried once per round for the full budget, each round after
// the first counted as a retry, and the error is the last replica's, wrapped
// — including in rounds that had nothing left to try (see
// TestAllReplicasCorruptIsPermanent for the all-corrupt case, where rounds
// two onward skip every replica and the first round's error must survive).
func TestReadBlockRoundsKeepLastError(t *testing.T) {
	c := testCluster(t, 2, 2)
	writer := c.ClientAt(0)
	writeFile(t, writer, "/f", randomData(300))
	for _, dn := range c.DataNodes {
		dn.SetDown(true)
	}
	reg := obs.NewRegistry()
	reader := c.ClientAt(0, WithRetry(3, 0), WithObserver(reg))
	r, err := reader.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = r.Read(make([]byte, 16))
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("read with every replica down = %v, want ErrNodeDown", err)
	}
	if got := reader.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2 (three rounds)", got)
	}
	// One counter per fact: the observer's series is the slot Stats reads.
	if got := reg.Snapshot().Counter("dfs.client.retries"); got != 2 {
		t.Errorf("dfs.client.retries = %d, want 2", got)
	}

	// A replica other than the first choice answering is a failover.
	c.DataNodes[1].SetDown(false)
	if _, err := r.Read(make([]byte, 16)); err != nil {
		t.Fatalf("read with one replica back: %v", err)
	}
	if got := reader.Stats().ReadFailovers; got != 1 {
		t.Errorf("ReadFailovers = %d, want 1", got)
	}
}

// GIVEN two clients observing one registry and one observing none WHEN each
// counts recovery work THEN the two share their series — either's Stats is
// the registry's total — and the third counts in private slots.
func TestClientCountersAreTheObserverSeries(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := NewClient(nil, WithObserver(reg), WithRetry(2, 0)), NewClient(nil, WithObserver(reg), WithRetry(3, 0))
	alone := NewClient(nil, WithRetry(2, 0))
	fail := func() error { return errors.New("transient") }
	_ = a.retry(fail)     // 1 retry
	_ = b.retry(fail)     // 2 retries
	_ = alone.retry(fail) // 1 retry, not in reg
	if got := reg.Snapshot().Counter("dfs.client.retries"); got != 3 {
		t.Errorf("dfs.client.retries = %d, want 3", got)
	}
	if a.Stats().Retries != 3 || b.Stats().Retries != 3 {
		t.Errorf("Stats().Retries = %d and %d, want the shared total 3 from both", a.Stats().Retries, b.Stats().Retries)
	}
	if got := alone.Stats().Retries; got != 1 {
		t.Errorf("unobserved client's Retries = %d, want 1", got)
	}
	if _, ok := reg.Snapshot().Counters["dfs.client.corrupt.reads"]; !ok {
		t.Error("dfs.client.corrupt.reads absent: a resolved series must export an explicit zero")
	}
}
