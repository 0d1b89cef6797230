package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/proc"
)

// Contracts of the block list (blocklist.go) and of the buffer-ownership
// rules around it (DESIGN §9 has the table), each beside the test that
// holds it. CI runs this file's tests five more times under -race.

// overBothTransports runs test once against an in-process cluster and once
// against one served over loopback TCP, both of 4 DataNodes at replication
// 3. newClient returns a client co-located with DataNode i.
func overBothTransports(t *testing.T, test func(t *testing.T, newClient func(i int, opts ...ClientOption) *Client)) {
	t.Run("inproc", func(t *testing.T) {
		test(t, testCluster(t, 4, 3).ClientAt)
	})
	t.Run("tcp", func(t *testing.T) {
		transport, _, _ := startTCPCluster(t, 4, 3)
		test(t, func(i int, opts ...ClientOption) *Client {
			return NewClient(transport, append([]ClientOption{WithLocalNode(fmt.Sprintf("dn-%d", i))}, opts...)...)
		})
	})
}

// drainBlockList empties the block list and returns what was on it.
func drainBlockList() [][]byte {
	var listed [][]byte
	for {
		b, _ := blockList.Get().(*[]byte)
		if b == nil {
			return listed
		}
		listed = append(listed, *b)
	}
}

// Boxed cycle.
// GIVEN buffers cycled through the list from several goroutines at once,
// and then a list warmed by one 1 MiB buffer,
// WHEN a listed buffer is taken and given back,
// THEN each buffer has one owner while it is out (the race detector's
// half), and the warm cycle allocates nothing: the *[]byte a buffer is
// listed in comes back for the next buffer given back, instead of a new
// one escaping per putBlock.
func TestBlockListCycleAllocatesNothing(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := getBlock(4096)
				b[0], b[4095] = g, g
				runtime.Gosched()
				if b[0] != g || b[4095] != g {
					t.Errorf("goroutine %d: a buffer it held was written by another owner", g)
				}
				putBlock(b)
			}
		}(byte(g))
	}
	wg.Wait()
	if raceEnabled {
		return // sync.Pool drops a share of what it is given under the race detector
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drainBlockList()
	putBlock(make([]byte, 1<<20))
	if got := testing.AllocsPerRun(100, func() { putBlock(getBlock(1 << 20)) }); got != 0 {
		t.Errorf("a warm get/put cycle allocates %v objects, want 0", got)
	}
}

// Closed reader.
// GIVEN a reader that has been closed, part-way through its file or after
// the last byte,
// WHEN Read is called,
// THEN it fails with a *PathError and fetches nothing — the block the
// reader held went back to the list at Close and is another owner's now —
// and closing again is harmless.
func TestReaderAfterClose(t *testing.T) {
	overBothTransports(t, func(t *testing.T, newClient func(int, ...ClientOption) *Client) {
		client := newClient(0, WithBlockSize(1024))
		writeFile(t, client, "/closed", randomData(5000))
		for _, readFirst := range []int{0, 100, 5000} {
			r, err := client.Open("/closed")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(r, make([]byte, readFirst)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := r.Close(); err != nil {
					t.Fatalf("Close #%d after %d bytes: %v", i+1, readFirst, err)
				}
			}
			next := r.(*fileReader).next
			n, err := r.Read(make([]byte, 10))
			var pe *PathError
			if n != 0 || !errors.As(err, &pe) || pe.Path != "/closed" {
				t.Errorf("Read after Close (%d bytes in) = %d, %v; want 0 and a *PathError", readFirst, n, err)
			}
			if got := r.(*fileReader).next; got != next {
				t.Errorf("closed reader fetched block %d", next)
			}
		}
	})
}

// Aliasing.
// GIVEN one client whose writers and readers take their block buffers from
// the list and give them back,
// WHEN file A is written and closed, file B is written through the same
// client, and both are read back — interleaved from two readers on one
// goroutine, then from two goroutines while a third keeps writing,
// THEN every byte is as written: no buffer reaches the list while anyone
// still reads or fills it.
func TestBlockReuseAliasing(t *testing.T) {
	overBothTransports(t, func(t *testing.T, newClient func(int, ...ClientOption) *Client) {
		client := newClient(1, WithBlockSize(4096))
		files := map[string][]byte{"/alias/a": randomData(5*4096 + 17), "/alias/b": randomData(3*4096 + 4001)}
		writeFile(t, client, "/alias/a", files["/alias/a"])
		writeFile(t, client, "/alias/b", files["/alias/b"])

		ra, err := client.Open("/alias/a")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := client.Open("/alias/b")
		if err != nil {
			t.Fatal(err)
		}
		var gotA, gotB bytes.Buffer
		chunk := make([]byte, 1000)
		for doneA, doneB := false, false; !doneA || !doneB; {
			for _, side := range []struct {
				r    io.Reader
				into *bytes.Buffer
				done *bool
			}{{ra, &gotA, &doneA}, {rb, &gotB, &doneB}} {
				n, err := side.r.Read(chunk)
				side.into.Write(chunk[:n])
				if err == io.EOF {
					*side.done = true
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
		ra.Close()
		rb.Close()
		if !bytes.Equal(gotA.Bytes(), files["/alias/a"]) || !bytes.Equal(gotB.Bytes(), files["/alias/b"]) {
			t.Fatal("interleaved readers returned bytes that were not written")
		}

		var wg sync.WaitGroup
		for name, want := range files {
			wg.Add(1)
			go func(name string, want []byte) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if got := readAllOrError(client, name); !bytes.Equal(got, want) {
						t.Errorf("%s, concurrent read %d: bytes differ from what was written", name, i)
						return
					}
				}
			}(name, want)
		}
		for i := 0; i < 20; i++ {
			writeFile(t, client, "/alias/c", randomData(4096+i))
		}
		wg.Wait()
	})
}

// Nothing oversized, nothing unreturned.
// GIVEN a file whose blocks are larger than DefaultBlockSize (the transport
// carries frames up to MaxBlockPayload) and a reader abandoned mid-block
// without Close,
// WHEN the file has been written, read and closed properly as well,
// THEN no buffer on the list is larger than DefaultBlockSize and none is
// the abandoned reader's block: the list holds only what an owner gave it.
func TestBlockReuseKeepsNothingOversized(t *testing.T) {
	const big = DefaultBlockSize + 4096
	run := func(t *testing.T, client *Client) {
		drainBlockList()
		data := bytes.Repeat(randomData(4099), big/4099+1)[:big+100]
		writeFile(t, client, "/big", data)
		if got := readFile(t, client, "/big"); !bytes.Equal(got, data) {
			t.Fatal("oversized blocks do not read back")
		}
		abandoned, err := client.Open("/big")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(abandoned, make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		held := abandoned.(*fileReader).block
		abandoned = nil
		runtime.GC()
		for _, b := range drainBlockList() {
			if cap(b) > DefaultBlockSize {
				t.Errorf("a %d-byte buffer is on the list, bound is %d", cap(b), DefaultBlockSize)
			}
			if &b[:1][0] == &held[0] {
				t.Error("the abandoned reader's block is on the list")
			}
		}
	}
	t.Run("inproc", func(t *testing.T) {
		run(t, testCluster(t, 1, 1).ClientAt(0, WithBlockSize(big)))
	})
	t.Run("tcp", func(t *testing.T) {
		transport, _, _ := startTCPCluster(t, 1, 1)
		run(t, NewClient(transport, WithBlockSize(big)))
	})
}

// Allocation budget.
// GIVEN a process, a DFS over loopback TCP at replication 3 and a list
// warmed by one round trip,
// WHEN the process is dumped in full and restored once more,
// THEN the whole program allocates at most its leg's budget in stored image
// bytes:
//   - a 1 MiB process, whose blocks are too small to be listed replicas, at
//     most 6 x. The floor is 4 x — three replicas the DataNodes keep and one
//     address space — and the copy-per-hop path this replaced sat near
//     12 x, so one stray block-sized copy or zeroed buffer anywhere on the
//     path fails here;
//   - an 8 MiB process, whose image fills one block, with the warm image
//     removed so its replicas' storage is back on the list, at most 1.5 x.
//     The floor is 1 x — the address space; the full block's three replicas
//     come from the list — where fresh frames for them sat at 4 x, and one
//     stray block-sized buffer would add 1 x.
func TestBlockReuseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under the race detector")
	}
	// One P: a sync.Pool keeps a buffer where only the P that put it looks
	// first, and a goroutine woken by the network on another P would
	// allocate a second one. The budget counts copies, not P affinity.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	engine := checkpoint.NewEngine(reg)
	for _, leg := range []struct {
		name       string
		mem        int64
		removeWarm bool
		budget     float64
	}{
		{"1MiB", 1 << 20, false, 6},
		{"block-sized", DefaultBlockSize, true, 1.5},
	} {
		t.Run(leg.name, func(t *testing.T) {
			transport, _, _ := startTCPCluster(t, 4, 3)
			client := NewClient(transport, WithLocalNode("dn-0"))
			p, err := proc.New("budget", proc.FillProgram{}, leg.mem, leg.mem)
			if err != nil {
				t.Fatal(err)
			}
			proc.ConfigureFill(p, 1<<20, 8)
			roundTrip := func(name string) int64 {
				if _, err := p.Step(); err != nil {
					t.Fatal(err)
				}
				if err := p.Suspend(); err != nil {
					t.Fatal(err)
				}
				info, err := engine.Dump(p, client, name, checkpoint.DumpOpts{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := proc.FillChecksum(p)
				if err != nil {
					t.Fatal(err)
				}
				p.Kill()
				if p, _, err = engine.Restore(client, name); err != nil {
					t.Fatal(err)
				}
				if got, err := proc.FillChecksum(p); err != nil || got != want {
					t.Fatalf("restored checksum %x (%v), dumped %x", got, err, want)
				}
				return info.StoredBytes
			}
			roundTrip("/budget/warm")
			if leg.removeWarm {
				if err := checkpoint.RemoveChain(client, "/budget/warm"); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			stored := roundTrip("/budget/measured")
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d stored bytes, %d allocated (%.2f x)", stored, got, float64(got)/float64(stored))
			if budget := uint64(leg.budget * float64(stored)); got > budget {
				t.Errorf("a dump and a restore of %d stored bytes allocated %d bytes (%.1f x), budget %d (%g x)",
					stored, got, float64(got)/float64(stored), budget, leg.budget)
			}
		})
	}
}

// Immutable replicas.
// GIVEN one DataNode written, read, verified, bit-rotted and deleted from
// many goroutines at once, the lock held for the map access only,
// WHEN a read succeeds,
// THEN it returns exactly the bytes of one complete write, and a replica
// handed out before a CorruptStoredBlock or a DeleteBlock is byte-for-byte
// unchanged after it: a stored slice is replaced, never written.
func TestDataNodeConcurrentReplicasImmutable(t *testing.T) {
	dn := NewDataNode(DataNodeInfo{ID: "dn-0", Addr: "dn-0"}, NewInProcTransport())
	const (
		blocks  = 4
		writers = 3
		rounds  = 200
	)
	// Version v of a block is its size's worth of the byte v, so a torn or
	// mixed read is visible in the bytes themselves.
	version := func(v byte) []byte { return bytes.Repeat([]byte{v}, 3*ChecksumChunkSize+5) }
	complete := func(b []byte) bool {
		return len(b) == 3*ChecksumChunkSize+5 && bytes.Count(b, b[:1]) == len(b)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := version(0)
			for i := 0; i < rounds; i++ {
				// The caller's buffer is reused between calls, as the
				// exported WriteBlock allows.
				copy(buf, version(byte(1+w*rounds+i)))
				if err := dn.WriteBlock(BlockID(i%blocks), buf, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := BlockID(i % blocks)
				got, err := dn.ReadBlock(id)
				switch {
				case err == nil && !complete(got):
					t.Errorf("block %d read back torn", id)
				case err != nil && !errors.Is(err, ErrBlockMissing) && !errors.Is(err, ErrCorruptBlock):
					t.Error(err)
				}
				putBlock(got)
				if err := dn.VerifyBlock(id); err != nil && !errors.Is(err, ErrBlockMissing) && !errors.Is(err, ErrCorruptBlock) {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := BlockID(i % blocks)
				view, err := dn.viewBlock(id)
				if err != nil {
					continue
				}
				if i%2 == 0 {
					dn.CorruptStoredBlock(id, i)
				} else if err := dn.DeleteBlock(id); err != nil {
					t.Error(err)
				}
				if !complete(view.data) {
					t.Errorf("replica of block %d changed under its holder", id)
				}
				view.release()
			}
		}()
	}
	wg.Wait()
}

// Replica holders.
// GIVEN a DataNode served over loopback TCP, whose block-sized replicas land
// in listed storage, and a writer that keeps landing and deleting other
// block-sized replicas over TCP, so frames go back to the list and out again,
// WHEN a view of a replica is held across a DeleteBlock, an overwrite or a
// CorruptStoredBlock — or across nothing, the map still holding it —
// THEN the view keeps the bytes it verified until it is released, and its
// release gives the frame back to the list exactly when the map's hold was
// dropped before.
func TestDataNodeReplicaHolders(t *testing.T) {
	transport, _, nodes := startTCPCluster(t, 1, 1)
	dn := nodes[0]
	api, err := transport.DataNode(dn.Info())
	if err != nil {
		t.Fatal(err)
	}
	version := func(v byte) []byte { return bytes.Repeat([]byte{v}, DefaultBlockSize) }
	intact := func(b []byte, v byte) bool {
		return len(b) == DefaultBlockSize && b[0] == v && bytes.Count(b, b[:1]) == len(b)
	}
	for _, way := range []struct {
		name    string
		drop    func() // what happens to block 1 while its view is held
		listed  bool   // the view's release lists the frame
		current byte   // the version block 1 reads afterwards, 0 for none
	}{
		{"held by the map", func() {}, false, 1},
		{"DeleteBlock", func() {
			if err := dn.DeleteBlock(1); err != nil {
				t.Error(err)
			}
		}, true, 0},
		{"overwrite", func() {
			if err := api.WriteBlock(1, version(2), nil); err != nil {
				t.Error(err)
			}
		}, true, 2},
		{"CorruptStoredBlock", func() { dn.CorruptStoredBlock(1, 5) }, true, 0},
	} {
		t.Run(way.name, func(t *testing.T) {
			if err := api.WriteBlock(1, version(1), nil); err != nil {
				t.Fatal(err)
			}
			view, err := dn.viewBlock(1)
			if err != nil {
				t.Fatal(err)
			}
			if view.held == nil {
				t.Fatal("a block-sized replica is not listed")
			}
			way.drop()

			stop, cycles := make(chan struct{}), make(chan int)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(cycles)
				for i := 0; ; i++ {
					id := BlockID(2 + i%2)
					if err := api.WriteBlock(id, version(byte(10+i%100)), nil); err != nil {
						t.Error(err)
						return
					}
					if err := dn.DeleteBlock(id); err != nil {
						t.Error(err)
						return
					}
					select {
					case <-stop:
						return
					case cycles <- i:
					}
				}
			}()
			for range 6 {
				<-cycles
				if !intact(view.data, 1) {
					t.Fatal("the held replica changed while other frames came off the list")
				}
			}
			close(stop)
			wg.Wait()

			// One P for the check: the list answers on the P that was given
			// the frame.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			drainBlockList()
			frame := &view.data[0]
			view.release()
			onList := false
			for _, b := range drainBlockList() {
				onList = onList || &b[:1][0] == frame
			}
			// The race detector's sync.Pool drops a share of what it is given,
			// so there only a frame listed too early shows.
			if onList && !way.listed || !onList && way.listed && !raceEnabled {
				t.Errorf("after the view's release the frame is listed = %v, want %v", onList, way.listed)
			}
			got, err := dn.ReadBlock(1)
			switch {
			case way.current == 0 && err == nil:
				t.Errorf("block 1 reads back after %s", way.name)
			case way.current != 0 && (err != nil || !intact(got, way.current)):
				t.Errorf("block 1 does not read back as version %d (%v)", way.current, err)
			}
			if err := dn.DeleteBlock(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// forwardProbe is the next pipeline stage of TestDataNodeReplicaHoldersForward:
// its WriteBlock deletes the block from the stage before it and looks at
// what it was handed.
type forwardProbe struct {
	prev  *DataNode
	check func(data []byte)
}

func (f forwardProbe) NameNode() (NameNodeAPI, error)             { return nil, errors.New("no namenode") }
func (f forwardProbe) DataNode(DataNodeInfo) (DataNodeAPI, error) { return f, nil }
func (f forwardProbe) ReadBlock(BlockID) ([]byte, error)          { return nil, ErrBlockMissing }
func (f forwardProbe) DeleteBlock(BlockID) error                  { return nil }
func (f forwardProbe) WriteBlock(id BlockID, data []byte, _ []DataNodeInfo) error {
	if err := f.prev.DeleteBlock(id); err != nil {
		return err
	}
	f.check(data)
	return nil
}

// Replica holders, the pipeline forward.
// GIVEN a DataNode given a block-sized replica to store and forward,
// WHEN the replica is deleted from it while the forward is under way,
// THEN the next stage is still handed the bytes as written, their frame is
// not on the list until the forward is done, and it is on it afterwards.
func TestDataNodeReplicaHoldersForward(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	version := bytes.Repeat([]byte{7}, DefaultBlockSize)
	frame := getBlock(DefaultBlockSize)
	copy(frame, version)
	listed := func() bool {
		onList := false
		for _, b := range drainBlockList() {
			onList = onList || &b[:1][0] == &frame[0]
		}
		return onList
	}
	probe := forwardProbe{check: func(data []byte) {
		if listed() {
			t.Error("the frame was listed while the forward still sent it")
		}
		if !bytes.Equal(data, version) {
			t.Error("the forward was handed bytes other than those written")
		}
	}}
	dn := NewDataNode(DataNodeInfo{ID: "dn-0", Addr: "dn-0"}, &probe)
	probe.prev = dn
	drainBlockList()
	if err := dn.writeOwned(1, frame, []DataNodeInfo{{ID: "dn-1", Addr: "dn-1"}}); err != nil {
		t.Fatal(err)
	}
	if !listed() && !raceEnabled {
		t.Error("the frame is not listed once the forward is done and the replica deleted")
	}
}

// Replica holders, the in-flight send.
// GIVEN a DataNode served over loopback TCP, sending a block-sized replica
// to a reader that stops reading after the response message, so the send
// stalls part-way through the frame,
// WHEN the replica is deleted and another block-sized replica lands over a
// second connection,
// THEN the reader, reading on, gets the bytes as written: the frame under
// the send is not the one the new replica lands in.
func TestDataNodeReplicaHoldersSend(t *testing.T) {
	// One P: the frame a delete frees is the next one the list gives out.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	transport, _, nodes := startTCPCluster(t, 1, 1)
	dn := nodes[0]
	writer, err := transport.DataNode(dn.Info())
	if err != nil {
		t.Fatal(err)
	}
	for round, v := range []byte{1, 2, 3} {
		if err := writer.WriteBlock(1, bytes.Repeat([]byte{v}, DefaultBlockSize), nil); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", dn.Info().Addr)
		if err != nil {
			t.Fatal(err)
		}
		// A small receive buffer: the kernel can hold only part of the frame.
		if err := conn.(*net.TCPConn).SetReadBuffer(32 << 10); err != nil {
			t.Fatal(err)
		}
		c := newRPCConn(conn)
		var resp rpcResponse
		if err := c.send(&rpcRequest{Method: "ReadBlock", Block: 1}, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.dec.Decode(&resp); err != nil || resp.Err != "" {
			t.Fatalf("ReadBlock: %v %s", err, resp.Err)
		}
		if err := dn.DeleteBlock(1); err != nil {
			t.Fatal(err)
		}
		if err := writer.WriteBlock(2, bytes.Repeat([]byte{9}, DefaultBlockSize), nil); err != nil {
			t.Fatal(err)
		}
		data, err := c.recvFrame(resp.Payload, true, func(n int) []byte { return make([]byte, n) })
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != DefaultBlockSize || bytes.Count(data, []byte{v}) != len(data) {
			t.Fatalf("round %d: the reader got bytes other than those written", round)
		}
	}
}
