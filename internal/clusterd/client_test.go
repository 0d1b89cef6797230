package clusterd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/wire"
)

// The wire client's rules on top of the shared connection layer and retry
// loop (contracts: internal/wire/wire_test.go, internal/core/backoff_test.go),
// GIVEN/WHEN/THEN.

// scriptedDaemon answers every request on every connection with reply(n),
// n counting requests from 1 across connections.
func scriptedDaemon(t *testing.T, reply func(n int32, conn net.Conn) *Response) (addr string, requests *atomic.Int32) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	requests = new(atomic.Int32)
	done := make(chan error, 1)
	go func() {
		done <- wire.Serve(l, func(conn net.Conn) {
			dec, enc := json.NewDecoder(bufio.NewReader(conn)), json.NewEncoder(conn)
			for {
				var req Request
				if dec.Decode(&req) != nil {
					return
				}
				resp := reply(requests.Add(1), conn)
				if resp == nil || enc.Encode(resp) != nil {
					return
				}
			}
		})
	}()
	t.Cleanup(func() { l.Close(); <-done })
	return l.Addr().String(), requests
}

// GIVEN a context already cancelled WHEN a request is issued THEN the client
// refuses to start: no connection is dialed, no request reaches the daemon,
// and the error is the context's. (The shared retry loop always runs a first
// attempt — the DFS clients need that — so this rule lives here, where it is
// wanted; it used to be core.Retry's TestRetryCancelledBeforeFirstAttempt.)
func TestDoRefusesCancelledContext(t *testing.T) {
	addr, requests := scriptedDaemon(t, func(int32, net.Conn) *Response { return &Response{OK: true, State: StateServing} })
	cli := NewClient(addr)
	defer cli.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Ping on a cancelled context = %v, want context.Canceled", err)
	}
	if _, err := cli.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Stats on a cancelled context = %v, want context.Canceled", err)
	}
	if got := requests.Load(); got != 0 {
		t.Errorf("%d requests reached the daemon from a cancelled context", got)
	}
	if state, err := cli.Ping(context.Background()); err != nil || state != StateServing {
		t.Errorf("Ping afterwards = %q/%v, want serving/nil", state, err)
	}
}

// GIVEN a daemon that hangs up on the first two requests it reads WHEN a
// request runs under a budget of three attempts THEN the first attempt spends
// its connection and its one redial, the second attempt gets the answer, and
// the caller sees only the answer.
func TestDoRetriesTransportFailures(t *testing.T) {
	addr, requests := scriptedDaemon(t, func(n int32, _ net.Conn) *Response {
		if n <= 2 {
			return nil // hang up without answering
		}
		return &Response{OK: true, State: StateServing}
	})
	cli := NewClient(addr, WithClientRetry(3, core.Backoff{Base: time.Millisecond}))
	defer cli.Close()
	if state, err := cli.Ping(context.Background()); err != nil || state != StateServing {
		t.Fatalf("Ping = %q/%v, want serving/nil", state, err)
	}
	if got := requests.Load(); got != 3 {
		t.Errorf("daemon read %d requests, want 3: two dropped, one answered", got)
	}
}

// GIVEN a daemon whose first answer is a whole JSON object that stops
// decoding at a mistyped field, and which answers the resent request with a
// rejection WHEN the client submits THEN what it returns is the second
// answer alone: nothing the first one had already decoded (a job ID) leaks
// into it.
func TestRedialDoesNotMergeResponses(t *testing.T) {
	addr, _ := scriptedDaemon(t, func(n int32, conn net.Conn) *Response {
		if n == 1 {
			conn.Write([]byte(`{"ok":true,"job_id":77,"state":5}` + "\n"))
			return nil
		}
		return &Response{Error: "clusterd: draining, not admitting", State: StateDraining}
	})
	cli := NewClient(addr, WithClientRetry(1, core.Backoff{}))
	defer cli.Close()
	resp, err := cli.Submit(context.Background(), JobRequest{Priority: 1, Tasks: 1, DurationMS: 1000})
	if err == nil || resp == nil {
		t.Fatalf("Submit = %+v, %v, want the rejection", resp, err)
	}
	if resp.OK || resp.JobID != 0 || resp.State != StateDraining {
		t.Errorf("response = %+v, want only the second answer's fields", resp)
	}
}

// GIVEN a daemon that backpressures every submission with a retry-after hint
// WHEN the client submits under a budget of three THEN it offers the job
// three times, waits at least the hint between offers, and returns the last
// rejection together with an error.
func TestSubmitHonorsRetryAfter(t *testing.T) {
	addr, requests := scriptedDaemon(t, func(int32, net.Conn) *Response {
		return &Response{Error: "clusterd: admission queue full", RetryAfterMS: 30, State: StateServing}
	})
	cli := NewClient(addr, WithClientRetry(3, core.Backoff{Base: time.Microsecond}))
	defer cli.Close()
	start := time.Now()
	resp, err := cli.Submit(context.Background(), JobRequest{Priority: 1, Tasks: 1, DurationMS: 1000})
	if err == nil || resp == nil || resp.RetryAfterMS != 30 {
		t.Fatalf("Submit = %+v, %v, want the final backpressure rejection and an error", resp, err)
	}
	if got := requests.Load(); got != 3 {
		t.Errorf("job offered %d times, want 3", got)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("three offers took %v, want at least two 30ms retry-after pauses", elapsed)
	}
}

// FuzzClientResponse holds the client's read path to its contract with a
// daemon it cannot trust:
//
// GIVEN arbitrary bytes as the daemon's answer to a request WHEN the client
// reads them THEN it does not panic; when the first line is one JSON object
// that json.Unmarshal decodes into a Response, the round trip returns
// exactly that; and for anything else it fails, which is what makes the
// peer drop the pooled connection (wire.Peer's contract; end to end,
// TestRedialDoesNotMergeResponses).
func FuzzClientResponse(f *testing.F) {
	for _, seed := range []string{
		`{"ok":true,"job_id":77,"state":"serving"}` + "\n",
		`{"ok":true,"job_id":77,"state":5}` + "\n",
		`{"ok":false,"error":"clusterd: admission queue full","retry_after_ms":100,"state":"serving"}` + "\n",
		`{"ok":false,"error":"\u003c\u0026\u003e \"q\"","state":"draining"}` + "\n",
		`{"ok":true,"state":"serving","stats":{"state":"serving","submitted":3,"admission_p99_sec":1.5e-05}}` + "\n",
		` {"ok" : true} ` + "\r\n",
		`{"ok":true}{"ok":false}` + "\n",
		`{"ok":true}`,
		`{"ok":true,"job_id":-0}` + "\n",
		`{"ok":true,"job_id":1e3}` + "\n",
		`{"OK":true,"Job_ID":5}` + "\n",
		`{"ok":true,"state":"` + strings.Repeat("s", 5000) + `"}` + "\n",
		"null\n",
		"[]\n",
		"\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sent bytes.Buffer
		lc := &lineConn{w: &sent, r: bufio.NewReader(bytes.NewReader(data))}
		resp := Response{OK: true, JobID: 77, Error: "left over"}
		err := lc.roundTrip(&Request{Op: "ping"}, &resp)
		if sent.String() != `{"op":"ping"}`+"\n" {
			t.Fatalf("wrote %q", sent.String())
		}

		var ref Response
		i := bytes.IndexByte(data, '\n')
		accept := i >= 0 && json.Unmarshal(data[:i+1], &ref) == nil
		if rest := bytes.TrimLeft(data[:i+1], " \t\r\n"); len(rest) == 0 || rest[0] != '{' {
			accept = false
		}
		switch {
		case accept && err != nil:
			t.Fatalf("answer %q refused: %v; json.Unmarshal makes %+v of its first line", data, err, ref)
		case accept && !reflect.DeepEqual(resp, ref):
			t.Fatalf("answer %q read as %+v, json.Unmarshal makes %+v", data, resp, ref)
		case !accept && err == nil:
			t.Fatalf("answer %q, not one Response on its first line, read as %+v", data, resp)
		}
	})
}
