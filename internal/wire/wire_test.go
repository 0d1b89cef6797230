package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The connection layer's contract, GIVEN/WHEN/THEN. Both protocols in the
// repo ride on this one Peer and this one Serve, so what either relied on
// in its own copy is pinned here once. The protocol in these tests is the
// smallest one there is: the framing state is the connection itself, a
// request is one byte and the response is that byte back.

// echoByte is one round trip of the test protocol.
func echoByte(b byte) func(net.Conn) error {
	return func(c net.Conn) error {
		if _, err := c.Write([]byte{b}); err != nil {
			return err
		}
		var in [1]byte
		if _, err := io.ReadFull(c, in[:]); err != nil {
			return err
		}
		if in[0] != b {
			return errors.New("echo mismatch")
		}
		return nil
	}
}

// echoHandler answers the test protocol until the peer goes away.
func echoHandler(c net.Conn) {
	var buf [1]byte
	for {
		if _, err := io.ReadFull(c, buf[:]); err != nil {
			return
		}
		if _, err := c.Write(buf[:]); err != nil {
			return
		}
	}
}

// countingPeer returns a peer for addr whose frame function — run once per
// dial — counts the dials.
func countingPeer(addr string, timeout time.Duration) (*Peer[net.Conn], *atomic.Int32) {
	var dials atomic.Int32
	return NewPeer(addr, timeout, func(c net.Conn) net.Conn { dials.Add(1); return c }), &dials
}

// serveEcho runs Serve(echoHandler) on a fresh loopback listener (or on addr,
// to come back where a previous server was) and returns it with the channel
// Serve's result arrives on.
func serveEcho(t *testing.T, addr string) (net.Listener, <-chan error) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(l, echoHandler) }()
	return l, done
}

// GIVEN a peer with a pooled connection to a server that has since
// restarted WHEN the next round trip runs THEN it fails on the stale
// connection, succeeds on the one redial, and the peer has dialed exactly
// twice in its life; the call after that reuses the second connection.
func TestPeerRedialsOnceAfterServerRestart(t *testing.T) {
	l, done := serveEcho(t, "127.0.0.1:0")
	addr := l.Addr().String()
	p, dials := countingPeer(addr, 5*time.Second)
	defer p.Close()
	if err := p.RoundTrip(echoByte(1)); err != nil {
		t.Fatalf("first round trip: %v", err)
	}
	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve after listener close = %v, want nil", err)
	}
	l2, done2 := serveEcho(t, addr)
	defer func() { l2.Close(); <-done2 }()

	if err := p.RoundTrip(echoByte(2)); err != nil {
		t.Fatalf("round trip across the restart: %v", err)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("%d dials, want 2: the original and the one redial", got)
	}
	if err := p.RoundTrip(echoByte(3)); err != nil || dials.Load() != 2 {
		t.Fatalf("warm round trip after the redial: err=%v dials=%d, want nil/2", err, dials.Load())
	}
}

// GIVEN a server that accepts and never answers WHEN a round trip runs under
// a short timeout THEN it fails after exactly two deadline-bounded attempts
// with a timeout error naming the address, and no connection stays pooled:
// the next call dials afresh.
func TestPeerHungServerFailsAfterTwoDeadlines(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- Serve(l, func(c net.Conn) { io.Copy(io.Discard, c) }) // reads forever, writes nothing
	}()
	defer func() { l.Close(); <-done }()

	const timeout = 50 * time.Millisecond
	p, dials := countingPeer(l.Addr().String(), timeout)
	defer p.Close()
	start := time.Now()
	err = p.RoundTrip(echoByte(1))
	elapsed := time.Since(start)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("round trip against a hung server = %v, want a timeout", err)
	}
	if dials.Load() != 2 {
		t.Errorf("%d dials, want 2 deadline-bounded attempts", dials.Load())
	}
	if elapsed < 2*timeout || elapsed > 5*time.Second {
		t.Errorf("failed after %v, want two %v deadlines", elapsed, timeout)
	}
	if p.conn != nil {
		t.Error("a connection stays pooled after both attempts failed")
	}
	_ = p.RoundTrip(echoByte(2))
	if dials.Load() != 4 {
		t.Errorf("%d dials after a second call, want 4: nothing was pooled to reuse", dials.Load())
	}
}

// GIVEN a round trip blocked on a server that will not answer WHEN Close is
// called THEN Close returns once that call has ended — at its deadline at
// the latest — without deadlock or data race (-race), the call reports its
// own failure, and the next round trip redials and succeeds.
func TestPeerCloseRacesInFlightRoundTrip(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var hang atomic.Bool
	hang.Store(true)
	entered := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		done <- Serve(l, func(c net.Conn) {
			if hang.Load() {
				entered <- struct{}{}
				io.Copy(io.Discard, c)
				return
			}
			echoHandler(c)
		})
	}()
	defer func() { l.Close(); <-done }()

	const timeout = 100 * time.Millisecond
	p, dials := countingPeer(l.Addr().String(), timeout)
	// exchanging is true while an attempt is on the wire; the attempt's
	// store of false happens before the round trip releases the peer.
	var exchanging atomic.Bool
	var attempts atomic.Int32
	inFlight := make(chan error, 1)
	go func() {
		inFlight <- p.RoundTrip(func(c net.Conn) error {
			attempts.Add(1)
			exchanging.Store(true)
			defer exchanging.Store(false)
			return echoByte(1)(c)
		})
	}()
	<-entered // the call holds the peer and is waiting for its answer

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: deadlock against the in-flight round trip")
	}
	if exchanging.Load() || attempts.Load() != 2 {
		t.Errorf("Close returned with the round trip still in flight (attempt %d of 2 on the wire: %v)",
			attempts.Load(), exchanging.Load())
	}
	if err := <-inFlight; err == nil {
		t.Error("the round trip against a hung server succeeded")
	}

	hang.Store(false)
	before := dials.Load()
	if err := p.RoundTrip(echoByte(2)); err != nil {
		t.Fatalf("round trip after Close: %v", err)
	}
	if dials.Load() != before+1 {
		t.Errorf("%d dials for the call after Close, want 1", dials.Load()-before)
	}
	p.Close()
}

// GIVEN round trips from several goroutines and Closes among them WHEN they
// all run at once THEN every round trip gets its own byte back — requests
// never interleave on the connection — and nothing races (-race).
func TestPeerSerializesConcurrentRoundTrips(t *testing.T) {
	l, done := serveEcho(t, "127.0.0.1:0")
	defer func() { l.Close(); <-done }()
	p, _ := countingPeer(l.Addr().String(), 5*time.Second)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := p.RoundTrip(echoByte(byte(g*50 + i))); err != nil {
					t.Errorf("goroutine %d, call %d: %v", g, i, err)
					return
				}
				if i%10 == 9 {
					p.Close()
				}
			}
		}(g)
	}
	wg.Wait()
}

// GIVEN an exchange that reports a framing error on a healthy connection
// WHEN RoundTrip sees it THEN that connection is dropped, not reused: the
// retry runs on a fresh dial, and the server sees the first one hang up.
func TestPeerDropsConnectionOnExchangeError(t *testing.T) {
	l, done := serveEcho(t, "127.0.0.1:0")
	defer func() { l.Close(); <-done }()
	p, dials := countingPeer(l.Addr().String(), 5*time.Second)
	defer p.Close()
	outOfStep := errors.New("frame out of step")
	var seen []net.Conn
	err := p.RoundTrip(func(c net.Conn) error {
		seen = append(seen, c)
		if len(seen) == 1 {
			return outOfStep
		}
		return echoByte(7)(c)
	})
	if err != nil {
		t.Fatalf("round trip = %v, want the retry on a fresh connection to succeed", err)
	}
	if len(seen) != 2 || seen[0] == seen[1] || dials.Load() != 2 {
		t.Fatalf("exchange ran on %d connections over %d dials, want 2 distinct over 2", len(seen), dials.Load())
	}
	if _, err := seen[0].Write([]byte{0}); err == nil {
		t.Error("the connection the framing error was reported on is still open")
	}
	// Both tries failing surfaces the exchange's own error, wrapped.
	if err := p.RoundTrip(func(net.Conn) error { return outOfStep }); !errors.Is(err, outOfStep) {
		t.Errorf("round trip failing twice = %v, want it to wrap the exchange's error", err)
	}
}

// GIVEN a peer for an address nobody listens on WHEN a round trip runs THEN
// it fails on the dial, once — a refused dial is not retried — without
// calling exchange.
func TestPeerDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	p, dials := countingPeer(addr, time.Second)
	err = p.RoundTrip(func(net.Conn) error { t.Error("exchange ran without a connection"); return nil })
	if err == nil || dials.Load() != 0 {
		t.Fatalf("round trip to a closed port: err=%v, %d connections framed", err, dials.Load())
	}
}

// GIVEN open connections with handlers blocked reading WHEN the listener is
// closed THEN Serve closes those connections, waits for every handler to
// return, and returns nil.
func TestServeClosesConnectionsAndWaitsForHandlers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 3
	var running, finished atomic.Int32
	started := make(chan struct{}, clients)
	done := make(chan error, 1)
	go func() {
		done <- Serve(l, func(c net.Conn) {
			running.Add(1)
			started <- struct{}{}
			io.Copy(io.Discard, c) // returns only when the connection closes
			finished.Add(1)
		})
	}()
	var conns []net.Conn
	for i := 0; i < clients; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns = append(conns, c)
		<-started
	}
	l.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after listener close = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return: handlers were not unblocked")
	}
	if finished.Load() != clients || running.Load() != clients {
		t.Fatalf("Serve returned with %d of %d handlers finished", finished.Load(), running.Load())
	}
	for i, c := range conns {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF && !errors.Is(err, net.ErrClosed) {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.Errorf("client %d: connection still open after Serve returned", i)
			}
		}
	}
}

// failingListener fails Accept with err once its accepted connections are
// used up.
type failingListener struct {
	net.Listener
	conns chan net.Conn
	err   error
}

func (l *failingListener) Accept() (net.Conn, error) {
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, l.err
}

// GIVEN an accept error that is not the listener closing WHEN Serve sees it
// THEN it gives open connections the same teardown and returns that error.
func TestServeReturnsOtherAcceptErrors(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	boom := errors.New("accept: too many open files")
	l := &failingListener{conns: make(chan net.Conn, 1), err: boom}
	l.conns <- server
	close(l.conns)
	handled := make(chan struct{})
	err := Serve(l, func(c net.Conn) {
		io.Copy(io.Discard, c)
		close(handled)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want the accept error", err)
	}
	select {
	case <-handled:
	default:
		t.Fatal("Serve returned before its handler did")
	}
}

// GIVEN a warm peer WHEN a round trip runs THEN the connection layer
// allocates nothing of its own: the deadline, the lock and the call through
// the exchange closure are free, as they were in each protocol's own
// exchangeLocked, so what a call allocates is what its protocol encodes.
func TestWarmRoundTripAllocatesNothing(t *testing.T) {
	l, done := serveEcho(t, "127.0.0.1:0")
	defer func() { l.Close(); <-done }()
	p, _ := countingPeer(l.Addr().String(), 5*time.Second)
	defer p.Close()
	out, in := []byte{9}, make([]byte, 1)
	var failed error
	exchange := func(c net.Conn) error {
		if _, err := c.Write(out); err != nil {
			return err
		}
		_, err := io.ReadFull(c, in)
		return err
	}
	if err := p.RoundTrip(exchange); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		// A closure over the call's own variables, built per call as the
		// protocols build theirs.
		if err := p.RoundTrip(func(c net.Conn) error { return exchange(c) }); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Errorf("a warm round trip allocates %v objects, want 0", allocs)
	}
}
