package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// GIVEN a 1 MiB process, a DFS over loopback TCP at replication 3 and a
// list warmed by one round trip,
// WHEN the process is dumped in full and restored once more,
// THEN the whole program allocates at most 6 x the stored image bytes. The
// floor is 4 x — three replicas the DataNodes keep and one address space —
// and the copy-per-hop path this replaced sat near 12 x, so one stray
// block-sized copy or zeroed buffer anywhere on the path fails here.
func TestBlockReuseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under the race detector")
	}
	// One P: a sync.Pool keeps a buffer where only the P that put it looks
	// first, and a goroutine woken by the network on another P would
	// allocate a second one. The budget counts copies, not P affinity.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	transport, _, _ := startTCPCluster(t, 4, 3)
	client := NewClient(transport, WithLocalNode("dn-0"))
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	engine := checkpoint.NewEngine(reg)
	p, err := proc.New("budget", proc.FillProgram{}, 1<<20, 1<<20)
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stored := roundTrip("/budget/measured")
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(6*stored); got > budget {
		t.Errorf("a dump and a restore of %d stored bytes allocated %d bytes (%.1f x), budget %d (6 x)",
			stored, got, float64(got)/float64(stored), budget)
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
				if !complete(view) {
					t.Errorf("replica of block %d changed under its holder", id)
				}
			}
		}()
	}
	wg.Wait()
}
