package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// pipeEnd is an in-memory connection end for driving the frame codec
// without sockets: reads come from one stream, writes go to another.
type pipeEnd struct {
	io.Reader
	io.Writer
}

// frameRecorder is the DataNode behind a fuzzed server connection. It
// records every WriteBlock frame it is handed and serves them back.
type frameRecorder struct {
	frames [][]byte
	blocks map[BlockID][]byte
	calls  int
}

func (f *frameRecorder) WriteBlock(id BlockID, data []byte, _ []DataNodeInfo) error {
	f.calls++
	f.frames = append(f.frames, data)
	if f.blocks == nil {
		f.blocks = make(map[BlockID][]byte)
	}
	f.blocks[id] = data
	return nil
}

func (f *frameRecorder) ReadBlock(id BlockID) ([]byte, error) {
	f.calls++
	data, ok := f.blocks[id]
	if !ok {
		return nil, fmt.Errorf("block %d: %w", id, ErrBlockMissing)
	}
	return data, nil
}

func (f *frameRecorder) DeleteBlock(BlockID) error {
	f.calls++
	return nil
}

// encodeRequests renders requests (each with its frame) as the byte stream
// a client would put on the wire. A request's Payload is sent as given, so
// callers can announce a length the frame does not have.
func encodeRequests(t interface{ Fatal(...any) }, reqs []rpcRequest, frames [][]byte) []byte {
	var buf bytes.Buffer
	c := newRPCConn(pipeEnd{nil, &buf})
	for i := range reqs {
		if err := c.send(&reqs[i], frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// allocatedBy reports the bytes the process allocated while fn ran, read
// from runtime/metrics (no stop-the-world, so the fuzz loop can afford it).
func allocatedBy(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// FuzzRPCFrame throws arbitrary bytes at both ends of the block-frame
// codec. The stream is fed to a server connection as if a client had sent
// it, and to a client as if a server had answered with it. Hostile,
// negative and oversized frame lengths, truncated frames and garbage gob
// must never panic and never allocate past MaxBlockPayload; every frame
// that is delivered must be bytes the peer really sent; and whatever the
// server answered before it gave up must itself be a well-formed stream —
// it drops the connection rather than answer out of step.
func FuzzRPCFrame(f *testing.F) {
	block := bytes.Repeat([]byte("block payload "), 40)
	real := encodeRequests(f,
		[]rpcRequest{
			{Method: "WriteBlock", Block: 7, Pipeline: []DataNodeInfo{{ID: "dn-1", Addr: "dn-1"}}, Payload: len(block)},
			{Method: "ReadBlock", Block: 7},
			{Method: "ReadBlock", Block: 8},
			{Method: "DeleteBlock", Block: 7},
		},
		[][]byte{block, nil, nil, nil})
	f.Add(real)
	// The matching response stream: what a real server answers to the above.
	var answered bytes.Buffer
	serveConn(pipeEnd{bytes.NewReader(real), &answered}, nil, &frameRecorder{})
	f.Add(answered.Bytes())
	f.Add(real[:len(real)/2])            // frame cut short
	f.Add(answered.Bytes()[:40])         // response cut short
	f.Add([]byte("\x03\xff\x82garbage")) // not gob
	for _, n := range []int{-1, MaxBlockPayload + 1, math.MaxInt, MaxBlockPayload} {
		// A length the stream does not back: negative, over the bound, absurd,
		// and the largest legal one with only a few bytes behind it.
		f.Add(encodeRequests(f, []rpcRequest{{Method: "WriteBlock", Block: 1, Payload: n}}, [][]byte{[]byte("short")}))
	}
	f.Add(encodeRequests(f, []rpcRequest{{Method: "ReadBlock", Block: 1, Payload: 5}}, [][]byte{[]byte("stray")}))

	f.Fuzz(func(t *testing.T, data []byte) {
		// What one connection may allocate: the bounded frame, plus gob's own
		// buffers, which grow with the bytes actually received.
		budget := uint64(MaxBlockPayload + 4<<20 + 64*len(data))

		// Server side.
		dn := &frameRecorder{}
		var out bytes.Buffer
		if got := allocatedBy(func() { serveConn(pipeEnd{bytes.NewReader(data), &out}, nil, dn) }); got > budget {
			t.Errorf("server connection allocated %d bytes on a %d-byte stream, budget %d", got, len(data), budget)
		}
		delivered := 0
		for _, frame := range dn.frames {
			if len(frame) > MaxBlockPayload {
				t.Errorf("delivered a %d-byte frame, bound is %d", len(frame), MaxBlockPayload)
			}
			if !bytes.Contains(data, frame) {
				t.Error("delivered a frame that is not a run of the bytes received")
			}
			delivered += len(frame)
		}
		if delivered > len(data) {
			t.Errorf("delivered %d frame bytes out of a %d-byte stream", delivered, len(data))
		}
		// Whatever the server wrote is whole responses, each with the frame
		// it announces, at least one per call it dispatched (requests for
		// unknown methods are answered without reaching the DataNode).
		reader := newRPCConn(pipeEnd{&out, io.Discard})
		responses := 0
		for {
			var resp rpcResponse
			if err := reader.dec.Decode(&resp); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("server output does not decode after %d responses: %v", responses, err)
			}
			if _, err := reader.recvFrame(resp.Payload, resp.Err == "", getBlock); err != nil {
				t.Fatalf("response %d: %v", responses, err)
			}
			responses++
		}
		if responses < dn.calls {
			t.Errorf("%d responses to %d dispatched calls", responses, dn.calls)
		}

		// Client side.
		var (
			resp  *rpcResponse
			frame []byte
			err   error
		)
		client := newRPCConn(pipeEnd{bytes.NewReader(data), io.Discard})
		if got := allocatedBy(func() { resp, frame, err = client.roundTrip(&rpcRequest{Method: "ReadBlock", Block: 1}, nil) }); got > budget {
			t.Errorf("client round trip allocated %d bytes on a %d-byte stream, budget %d", got, len(data), budget)
		}
		if err != nil {
			if resp != nil || frame != nil {
				t.Error("round trip returned data alongside an error")
			}
			return
		}
		if len(frame) != resp.Payload || len(frame) > MaxBlockPayload || !bytes.Contains(data, frame) {
			t.Errorf("accepted a %d-byte frame announced as %d", len(frame), resp.Payload)
		}
		if resp.Err != "" && frame != nil {
			t.Error("accepted a block frame on an error response")
		}
		// A metadata call on the same stream must refuse any frame.
		if resp, _, err := client.roundTrip(&rpcRequest{Method: "Stat", Path: "/x"}, nil); err == nil && resp.Payload != 0 {
			t.Errorf("metadata response carried a %d-byte frame", resp.Payload)
		}
	})
}

// TestWireRoundTripOverFrames sends every sentinel across the real
// framing — a ReadBlock that fails on the server, encoded, decoded and
// rehydrated by the client's round trip — and, between the failures,
// blocks that must arrive byte-identical: an error response carries no
// frame and leaves the stream in step for the next exchange.
func TestWireRoundTripOverFrames(t *testing.T) {
	block := randomData(3000)
	for _, entry := range errCodes {
		sentinel := entry.err
		t.Run(sentinel.Error(), func(t *testing.T) {
			cliConn, srvConn := net.Pipe()
			defer cliConn.Close()
			dn := &sentinelDataNode{fail: fmt.Errorf("datanode dn-1: block 9: %w", sentinel), block: block}
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer srvConn.Close()
				serveConn(srvConn, nil, dn)
			}()
			c := newRPCConn(cliConn)
			for round := 0; round < 2; round++ {
				resp, frame, err := c.roundTrip(&rpcRequest{Method: "ReadBlock", Block: 9}, nil)
				if err != nil {
					t.Fatal(err)
				}
				decoded := resp.asError()
				if !errors.Is(decoded, sentinel) || decoded == sentinel || frame != nil {
					t.Fatalf("failed read crossed the frames as %v with a %d-byte frame", decoded, len(frame))
				}
				if decoded.Error() != dn.fail.Error() {
					t.Errorf("decoded message %q lost the server context %q", decoded.Error(), dn.fail.Error())
				}
				resp, frame, err = c.roundTrip(&rpcRequest{Method: "ReadBlock", Block: 1}, nil)
				if err != nil || resp.asError() != nil || !bytes.Equal(frame, block) {
					t.Fatalf("block after a failed read: err %v / %v, %d bytes", err, resp.asError(), len(frame))
				}
				resp, _, err = c.roundTrip(&rpcRequest{Method: "WriteBlock", Block: 2, Payload: len(block)}, block)
				if err != nil || resp.asError() != nil || !bytes.Equal(dn.written, block) {
					t.Fatalf("block write after a failed read: err %v / %v", err, resp.asError())
				}
			}
			cliConn.Close()
			<-done
		})
	}
}

// sentinelDataNode fails reads of block 9 with a fixed error and serves
// one block for every other ID.
type sentinelDataNode struct {
	fail    error
	block   []byte
	written []byte
}

func (d *sentinelDataNode) WriteBlock(_ BlockID, data []byte, _ []DataNodeInfo) error {
	d.written = append([]byte(nil), data...)
	return nil
}

func (d *sentinelDataNode) ReadBlock(id BlockID) ([]byte, error) {
	if id == 9 {
		return nil, d.fail
	}
	return d.block, nil
}

func (d *sentinelDataNode) DeleteBlock(BlockID) error { return nil }

// TestHostileFrameDropsConnection: a peer that announces a frame it may
// not send is cut off, on both sides, and the next call starts on a fresh
// connection that works.
func TestHostileFrameDropsConnection(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dn := &frameRecorder{}
		go Serve(l, nil, dn)
		defer l.Close()
		for _, n := range []int{-1, MaxBlockPayload + 1} {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			c := newRPCConn(conn)
			if err := c.send(&rpcRequest{Method: "WriteBlock", Block: 1, Payload: n}, []byte("x")); err != nil {
				t.Fatal(err)
			}
			var resp rpcResponse
			if err := c.dec.Decode(&resp); err == nil {
				t.Errorf("server answered a %d-byte frame announcement with %+v", n, resp)
			}
			conn.Close()
		}
		if dn.calls != 0 {
			t.Errorf("server dispatched %d calls off hostile frames", dn.calls)
		}
	})

	t.Run("client", func(t *testing.T) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// The first connection answers every request with a frame length no
		// client may accept; later connections are served honestly.
		var (
			wg       sync.WaitGroup
			accepted int
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				accepted++
				if accepted > 1 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer conn.Close()
						serveConn(conn, nil, &sentinelDataNode{block: []byte("honest")})
					}()
					continue
				}
				c := newRPCConn(conn)
				if _, _, err := c.recvRequest(); err == nil {
					c.send(&rpcResponse{Payload: MaxBlockPayload + 1}, []byte("x"))
				}
				// Keep the hostile connection open: the client must hang up.
				io.Copy(io.Discard, conn)
				conn.Close()
			}
		}()
		peer := NewTCPTransport("").peer(l.Addr().String())
		defer peer.Close()
		// exchange retries once on a fresh dial, which lands on the honest
		// server: the hostile answer costs a connection, not the call.
		_, data, err := peer.exchange(&rpcRequest{Method: "ReadBlock", Block: 1}, nil)
		if err != nil || string(data) != "honest" {
			t.Fatalf("read after a hostile frame = %q, %v", data, err)
		}
		l.Close()
		peer.Close()
		wg.Wait()
		if accepted != 2 {
			t.Errorf("%d connections accepted, want the hostile one and its replacement", accepted)
		}
	})
}
