package clusterd

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/wire"
)

// Client speaks the wire protocol over the shared connection layer: one
// lazily dialed, reused connection, a deadline per request, one redial on a
// stale connection. On top of that transport failures retry with the shared
// capped-jitter backoff, and submit retries honor the server's retry-after
// backpressure hint. Safe for concurrent use; requests serialize on the
// connection.
type Client struct {
	timeout time.Duration // of each request; read once, when NewClient builds peer
	retrier *core.Retrier
	peer    *wire.Peer[*lineConn]
}

// lineConn frames one connection: one JSON object per line each way.
type lineConn struct {
	w   io.Writer
	r   *bufio.Reader
	out []byte // the request being written, reused
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRequestTimeout bounds each request round trip (dial, write, read).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithClientRetry sets the per-request attempt budget and backoff base.
func WithClientRetry(attempts int, b core.Backoff) ClientOption {
	return func(c *Client) {
		if attempts > 0 {
			c.retrier.Attempts = attempts
		}
		c.retrier.Backoff = b
	}
}

// WithClientSeed seeds the jitter source for reproducible pacing.
func WithClientSeed(seed int64) ClientOption {
	return func(c *Client) { c.retrier.Seed(seed) }
}

// NewClient returns a client for the daemon at addr. No I/O happens
// until the first request.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		timeout: 5 * time.Second,
		retrier: core.NewRetrier(5, core.Backoff{Base: 20 * time.Millisecond, Cap: time.Second}, 1),
	}
	for _, o := range opts {
		o(c)
	}
	c.peer = wire.NewPeer(addr, c.timeout, func(conn net.Conn) *lineConn {
		return &lineConn{w: conn, r: bufio.NewReader(conn)}
	})
	return c
}

// exchange performs one request/response round trip.
func (c *Client) exchange(req *Request) (*Response, error) {
	var resp Response
	if err := c.peer.RoundTrip(func(lc *lineConn) error { return lc.roundTrip(req, &resp) }); err != nil {
		return nil, fmt.Errorf("clusterd: %w", err)
	}
	return &resp, nil
}

// roundTrip writes req as one line and decodes the one line that answers it
// into resp. A reply line that is not one Response leaves the stream out of
// step, which the peer treats as a transport error: it drops the connection.
func (lc *lineConn) roundTrip(req *Request, resp *Response) error {
	lc.out = appendRequest(lc.out[:0], req)
	if _, err := lc.w.Write(lc.out); err != nil {
		return err
	}
	line, err := lc.readLine()
	if err != nil {
		return err
	}
	return decodeResponse(line, resp)
}

// readLine reads through the next newline. The line aliases the reader's
// buffer unless it outgrew it.
func (lc *lineConn) readLine() ([]byte, error) {
	line, err := lc.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = lc.r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// do runs one request with transport-level retries: each attempt is a
// full deadline-bounded exchange, attempts are paced by the shared
// backoff, and cancellation is honored before the first attempt and
// between attempts.
func (c *Client) do(ctx context.Context, req *Request) (resp *Response, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	err = c.retrier.Do(ctx, nil, nil, func() (err error) {
		resp, err = c.exchange(req)
		return err
	})
	return resp, err
}

// Ping probes liveness and returns the daemon's state.
func (c *Client) Ping(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, &Request{Op: "ping"})
	if err != nil {
		return "", err
	}
	return resp.State, nil
}

// Stats fetches the daemon's bookkeeping snapshot.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	resp, err := c.do(ctx, &Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("clusterd: stats response without stats (error %q)", resp.Error)
	}
	return resp.Stats, nil
}

// Submit offers one job, retrying transport failures and backpressure
// rejections (pacing by the larger of the backoff delay and the server's
// retry-after hint) until the attempt budget runs out. Hard rejections —
// validation errors, a draining daemon — fail immediately: retrying them
// cannot succeed. The returned Response carries the daemon-assigned job
// ID on success; on a final backpressure rejection the Response is
// returned alongside the error so callers can distinguish "queue full"
// from a dead daemon.
func (c *Client) Submit(ctx context.Context, jr JobRequest) (*Response, error) {
	req := &Request{Op: "submit", Job: &jr}
	var last *Response
	var lastErr error
	for attempt := 0; attempt < c.retrier.Attempts; attempt++ {
		if attempt > 0 {
			d := c.retrier.Delay(attempt)
			if last != nil {
				if ra := time.Duration(last.RetryAfterMS) * time.Millisecond; ra > d {
					d = ra
				}
			}
			if err := core.Sleep(ctx, d); err != nil {
				if lastErr == nil {
					lastErr = err
				}
				return last, lastErr
			}
		}
		resp, err := c.exchange(req)
		if err != nil {
			last, lastErr = nil, err
			continue
		}
		if resp.OK {
			return resp, nil
		}
		if resp.RetryAfterMS <= 0 {
			return resp, fmt.Errorf("clusterd: submit rejected: %s", resp.Error)
		}
		last, lastErr = resp, fmt.Errorf("clusterd: submit backpressured: %s", resp.Error)
	}
	return last, lastErr
}

// Close drops the pooled connection; a request in flight ends first.
func (c *Client) Close() { c.peer.Close() }
