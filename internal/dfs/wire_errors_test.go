package dfs

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"preemptsched/internal/storage"
)

// TestWireRoundTripMatchesAllSentinels proves the property the
// sentinelerr analyzer enforces: every one of the nine sentinels, after
// crossing the wire (setErr → asError) with server-side context wrapped
// around it, still matches errors.Is — and never matches ==. A new
// sentinel added to the package without a wire code fails this test.
func TestWireRoundTripMatchesAllSentinels(t *testing.T) {
	if len(errCodes) != 9 {
		t.Fatalf("wire table has %d sentinels, want 9 — extend this test and the code table together", len(errCodes))
	}
	for _, entry := range errCodes {
		sentinel := entry.err
		t.Run(sentinel.Error(), func(t *testing.T) {
			srvErr := fmt.Errorf("namenode: open /jobs/x: %w", sentinel)
			var resp rpcResponse
			resp.setErr(srvErr)
			if resp.ErrCode != entry.code {
				t.Fatalf("wire code = %d, want %d", resp.ErrCode, entry.code)
			}
			decoded := resp.asError()
			if decoded == nil {
				t.Fatal("decoded error is nil")
			}
			if !errors.Is(decoded, sentinel) {
				t.Fatalf("errors.Is(decoded, sentinel) = false for %v", sentinel)
			}
			if decoded == sentinel {
				t.Fatal("decoded error compares identical to the sentinel; the wire must produce a wrapper or this test proves nothing")
			}
			if decoded.Error() != srvErr.Error() {
				t.Errorf("decoded message %q lost the server context %q", decoded.Error(), srvErr.Error())
			}

			// Client-side wrapping stacks on top of the wire wrapper and
			// must still unwrap to the sentinel.
			wrapped := &PathError{Op: "read", Path: "/jobs/x", Err: decoded}
			if !errors.Is(wrapped, sentinel) {
				t.Errorf("PathError-wrapped wire error no longer matches %v", sentinel)
			}
			double := fmt.Errorf("restore image: %w", wrapped)
			if !errors.Is(double, sentinel) {
				t.Errorf("doubly wrapped wire error no longer matches %v", sentinel)
			}
		})
	}
}

// TestRetryPathPreservesSentinels drives decoded wire errors through the
// client's actual retry loop: permanent sentinels must come back on the
// first attempt, transient ones after the budget — and in both cases the
// surfaced error must still satisfy errors.Is against the sentinel.
func TestRetryPathPreservesSentinels(t *testing.T) {
	for _, entry := range errCodes {
		sentinel := entry.err
		t.Run(sentinel.Error(), func(t *testing.T) {
			c := NewClient(nil, WithRetry(3, time.Nanosecond))

			var resp rpcResponse
			resp.setErr(fmt.Errorf("datanode dn-1: %w", sentinel))

			attempts := 0
			err := c.retry(func() error {
				attempts++
				return resp.asError()
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("error surfaced by retry path no longer matches %v (got %v)", sentinel, err)
			}
			if IsTransient(sentinel) {
				if attempts != 3 {
					t.Errorf("transient sentinel retried %d times, want the full budget of 3", attempts)
				}
			} else if attempts != 1 {
				t.Errorf("permanent sentinel retried %d times, want 1 — the identity must survive the wire for retry classification to work", attempts)
			}
		})
	}
}

// TestIsTransientSeesThroughWrapping pins the retry classifier itself to
// errors.Is semantics: a permanent sentinel stays permanent under any
// wrapping depth.
func TestIsTransientSeesThroughWrapping(t *testing.T) {
	var resp rpcResponse
	resp.setErr(fmt.Errorf("ctx: %w", ErrNotFound))
	wrapped := &PathError{Op: "stat", Path: "/x", Err: resp.asError()}
	if IsTransient(wrapped) {
		t.Error("wire-decoded, path-wrapped ErrNotFound classified transient; retries would hammer the namenode for a missing file")
	}
	if !IsTransient(errors.New("connection reset")) {
		t.Error("unknown errors must stay transient (retryable)")
	}
}

// TestNotFoundIsMatchedByIdentityOnly: the client maps a missing file to
// storage.NotExistError by the ErrNotFound sentinel alone. An error that
// arrives without a wire code (code 0) is not a missing file, even when
// its text says "file not found", and surfaces as itself.
func TestNotFoundIsMatchedByIdentityOnly(t *testing.T) {
	codeless := (&rpcResponse{Err: "namenode: stat /x: " + ErrNotFound.Error()}).asError()
	if errors.Is(codeless, ErrNotFound) {
		t.Fatal("a code-0 wire error carries ErrNotFound identity; the test proves nothing")
	}
	tr := NewInProcTransport()
	tr.SetNameNode(errStubNameNode{err: codeless})
	_, err := NewClient(tr, WithRetry(1, 0)).Size("/x")
	var notExist *storage.NotExistError
	if errors.As(err, &notExist) || !errors.Is(err, codeless) {
		t.Fatalf("Size = %v, want the code-0 error itself, not a NotExistError", err)
	}
}
