// Package wire is the connection layer under both TCP protocols in the
// repo: the DFS RPC (a gob message, optionally followed by a raw block
// frame) and the clusterd wire protocol (one JSON object per line). It owns
// what the two have in common and nothing of what they say: a client Peer
// that keeps one lazily dialed connection to one address, and a Serve loop
// that runs one handler per accepted connection. Each protocol keeps its own
// bytes in a framing state it builds once per connection.
package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Peer issues request/response round trips to one remote address over a
// lazily dialed, reused connection. S is the protocol's per-connection
// framing state — whatever stateful encoder/decoder pair reads and writes
// the connection — built by the frame function after every dial. Safe for
// concurrent use; round trips serialize on the connection.
type Peer[S any] struct {
	addr string
	// timeout bounds the dial and each round trip (write and read together),
	// so a hung peer fails the call instead of wedging the caller forever.
	// Zero disables both bounds.
	timeout time.Duration
	frame   func(net.Conn) S

	mu    sync.Mutex
	conn  net.Conn // nil until the first round trip, after a failure and after Close
	state S        // framing of conn; meaningless while conn is nil
}

// NewPeer returns a peer for addr. No I/O happens until the first round
// trip.
func NewPeer[S any](addr string, timeout time.Duration, frame func(net.Conn) S) *Peer[S] {
	return &Peer[S]{addr: addr, timeout: timeout, frame: frame}
}

// RoundTrip runs exchange — one request written, one response read — on the
// peer's connection under one deadline. Any error exchange returns is a
// transport error: the stream can no longer be trusted to be in step, so the
// connection is dropped and exchange runs once more on a fresh dial, which
// is what a pooled connection the server has since closed costs. Errors the
// protocol carries inside a well-formed response are the caller's to read
// after RoundTrip returns nil.
//
// RoundTrip holds p.mu for the whole exchange: the framing state is
// stateful and the connection carries one request at a time, so the mutex IS
// the request pipeline. This is the one place in the repo where a lock is
// held across network I/O on purpose; the I/O itself lives in
// roundTripLocked, which requires the caller to hold p.mu.
func (p *Peer[S]) RoundTrip(exchange func(S) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.roundTripLocked(exchange)
}

func (p *Peer[S]) roundTripLocked(exchange func(S) error) error {
	var lastErr error
	for try := 0; try < 2; try++ {
		if p.conn == nil {
			conn, err := net.DialTimeout("tcp", p.addr, p.timeout)
			if err != nil {
				return fmt.Errorf("dial %s: %w", p.addr, err)
			}
			p.conn, p.state = conn, p.frame(conn)
		}
		if p.timeout > 0 {
			p.conn.SetDeadline(time.Now().Add(p.timeout))
		}
		if lastErr = exchange(p.state); lastErr == nil {
			if p.timeout > 0 {
				p.conn.SetDeadline(time.Time{})
			}
			return nil
		}
		// Stale, broken, timed-out or out-of-step connection.
		p.conn.Close()
		p.conn = nil
	}
	return fmt.Errorf("rpc to %s: %w", p.addr, lastErr)
}

// Close drops the pooled connection; the next round trip redials. Detach
// under the lock, close outside it: the lock is what a round trip in flight
// holds, so Close returns once that call has ended — at the latest at its
// deadline — and never closes a connection a caller is still using.
func (p *Peer[S]) Close() {
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Serve accepts connections on l until it closes, running handle on each in
// a goroutine of its own; handle returning drops its connection. Closing the
// listener is the clean shutdown: Serve closes every open connection so the
// handlers unblock from their pending reads, waits for them, and returns
// nil. Any other accept error gets the same teardown and is returned.
func Serve(l net.Listener, handle func(net.Conn)) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			// Snapshot under the lock, close outside it: a Close that blocks
			// must not stall the handlers' own delete(conns, conn).
			mu.Lock()
			open := make([]net.Conn, 0, len(conns))
			for c := range conns {
				open = append(open, c)
			}
			mu.Unlock()
			for _, c := range open {
				c.Close()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				conn.Close()
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
			handle(conn)
		}()
	}
}
