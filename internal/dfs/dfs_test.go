package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

func testCluster(t testing.TB, nodes, replication int) *Cluster {
	t.Helper()
	c, err := NewCluster(nodes, replication)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeFile(t testing.TB, s storage.Store, name string, data []byte) {
	t.Helper()
	w, err := s.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, s storage.Store, name string) []byte {
	t.Helper()
	r, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func randomData(n int) []byte {
	rng := sim.NewRNG(99)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	return data
}

func TestClientSingleBlockRoundTrip(t *testing.T) {
	c := testCluster(t, 4, 3)
	client := c.ClientAt(0)
	data := []byte("hello distributed world")
	writeFile(t, client, "/f", data)
	if got := readFile(t, client, "/f"); !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
	if n, err := client.Size("/f"); err != nil || n != int64(len(data)) {
		t.Errorf("Size = %d, %v", n, err)
	}
}

func TestClientMultiBlockRoundTrip(t *testing.T) {
	c := testCluster(t, 5, 3)
	client := c.ClientAt(1, WithBlockSize(1024))
	data := randomData(10*1024 + 37) // 11 blocks, last partial
	writeFile(t, client, "/multi", data)
	if got := readFile(t, client, "/multi"); !bytes.Equal(got, data) {
		t.Error("multi-block content mismatch")
	}
	info, err := c.NameNode.Stat("/multi")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 11 {
		t.Errorf("blocks = %d, want 11", len(info.Blocks))
	}
}

func TestReplicationFactorAndLocality(t *testing.T) {
	c := testCluster(t, 5, 3)
	client := c.ClientAt(2, WithBlockSize(512))
	writeFile(t, client, "/r", randomData(2000))
	info, _ := c.NameNode.Stat("/r")
	for _, b := range info.Blocks {
		if len(b.Replicas) != 3 {
			t.Fatalf("block %d has %d replicas, want 3", b.ID, len(b.Replicas))
		}
		if b.Replicas[0].ID != "dn-2" {
			t.Errorf("block %d first replica %s, want local dn-2", b.ID, b.Replicas[0].ID)
		}
		seen := map[string]bool{}
		for _, r := range b.Replicas {
			if seen[r.ID] {
				t.Fatalf("block %d placed twice on %s", b.ID, r.ID)
			}
			seen[r.ID] = true
		}
	}
	// Every replica actually holds the block bytes.
	for _, b := range info.Blocks {
		for i, dn := range b.Replicas {
			var node *DataNode
			for _, d := range c.DataNodes {
				if d.Info().ID == dn.ID {
					node = d
				}
			}
			if _, err := node.ReadBlock(b.ID); err != nil {
				t.Errorf("replica %d (%s) of block %d missing: %v", i, dn.ID, b.ID, err)
			}
		}
	}
}

func TestReplicationClampedToClusterSize(t *testing.T) {
	c := testCluster(t, 2, 3)
	client := c.ClientAt(0)
	writeFile(t, client, "/f", []byte("x"))
	info, _ := c.NameNode.Stat("/f")
	if len(info.Blocks[0].Replicas) != 2 {
		t.Errorf("replicas = %d, want clamped 2", len(info.Blocks[0].Replicas))
	}
}

func TestReadFallsBackAcrossReplicas(t *testing.T) {
	c := testCluster(t, 4, 3)
	client := c.ClientAt(0, WithBlockSize(256))
	data := randomData(1000)
	writeFile(t, client, "/fb", data)
	// Take down the local (first) replica; reads must still succeed.
	c.DataNodes[0].SetDown(true)
	if got := readFile(t, client, "/fb"); !bytes.Equal(got, data) {
		t.Error("fallback read mismatch")
	}
	// Take down all nodes: read must fail.
	for _, dn := range c.DataNodes {
		dn.SetDown(true)
	}
	r, err := client.Open("/fb")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err == nil {
		t.Error("read with all replicas down succeeded")
	}
}

func TestWritePipelineRebuiltAroundDeadReplica(t *testing.T) {
	c := testCluster(t, 3, 3)
	client := c.ClientAt(0)
	c.DataNodes[1].SetDown(true)
	data := randomData(100)
	// The daisy-chained pipeline breaks at the dead middle replica; the
	// client must rebuild it, exclude dn-1, and report the survivors.
	writeFile(t, client, "/pf", data)
	if got := client.Stats().PipelineRebuilds; got == 0 {
		t.Error("no pipeline rebuild recorded")
	}
	info, err := c.NameNode.Stat("/pf")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range info.Blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d replica set %v, want the 2 survivors", b.ID, b.Replicas)
		}
		for _, r := range b.Replicas {
			if r.ID == "dn-1" {
				t.Errorf("dead replica dn-1 still in block %d's replica set", b.ID)
			}
		}
	}
	if got := readFile(t, client, "/pf"); !bytes.Equal(got, data) {
		t.Error("rebuilt-pipeline file corrupted")
	}
	// With every replica down the write must still fail.
	for _, dn := range c.DataNodes {
		dn.SetDown(true)
	}
	w, err := client.Create("/pf2")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(randomData(100))
	if err := w.Close(); err == nil {
		t.Error("write with all replicas down reported success")
	}
}

func TestOverwriteReclaimsBlocks(t *testing.T) {
	c := testCluster(t, 3, 2)
	client := c.ClientAt(0, WithBlockSize(128))
	writeFile(t, client, "/ow", randomData(1024))
	before := 0
	for _, dn := range c.DataNodes {
		before += len(dn.BlockIDs())
	}
	writeFile(t, client, "/ow", []byte("tiny"))
	after := 0
	for _, dn := range c.DataNodes {
		after += len(dn.BlockIDs())
	}
	if after >= before {
		t.Errorf("blocks not reclaimed on overwrite: before=%d after=%d", before, after)
	}
	if got := readFile(t, client, "/ow"); string(got) != "tiny" {
		t.Errorf("overwritten content %q", got)
	}
}

func TestRemoveReclaimsBlocks(t *testing.T) {
	c := testCluster(t, 3, 2)
	client := c.ClientAt(0, WithBlockSize(128))
	writeFile(t, client, "/rm", randomData(600))
	if err := client.Remove("/rm"); err != nil {
		t.Fatal(err)
	}
	for _, dn := range c.DataNodes {
		if len(dn.BlockIDs()) != 0 {
			t.Errorf("%s still holds %d blocks", dn.Info().ID, len(dn.BlockIDs()))
		}
	}
	var notExist *storage.NotExistError
	if _, err := client.Open("/rm"); !errors.As(err, &notExist) {
		t.Errorf("Open removed: %v", err)
	}
	if err := client.Remove("/rm"); !errors.As(err, &notExist) {
		t.Errorf("double Remove: %v", err)
	}
}

func TestListOnlyCompleteFiles(t *testing.T) {
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0)
	writeFile(t, client, "/a/1", []byte("x"))
	writeFile(t, client, "/a/2", []byte("y"))
	writeFile(t, client, "/b/1", []byte("z"))
	w, _ := client.Create("/a/open")
	w.Write([]byte("pending"))
	// not closed: must not be listed
	names, err := client.List("/a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "/a/1" || names[1] != "/a/2" {
		t.Errorf("List = %v", names)
	}
	w.Close()
	names, _ = client.List("/a/")
	if len(names) != 3 {
		t.Errorf("after close List = %v", names)
	}
}

func TestStatIncompleteFile(t *testing.T) {
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0)
	w, _ := client.Create("/inc")
	w.Write([]byte("data"))
	if _, err := client.Size("/inc"); err == nil {
		t.Error("Size of open file succeeded")
	}
	_ = w
}

func TestCreateWhileOpenFails(t *testing.T) {
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0)
	w, err := client.Create("/dup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Create("/dup"); err == nil {
		t.Error("second concurrent Create succeeded")
	}
	w.Close()
	if _, err := client.Create("/dup"); err != nil {
		t.Errorf("Create after Close: %v", err)
	}
}

func TestWriterAfterClose(t *testing.T) {
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0)
	w, _ := client.Create("/wc")
	w.Close()
	if _, err := w.Write([]byte("late")); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestNameNodeValidation(t *testing.T) {
	nn := NewNameNode(3)
	if err := nn.Register(DataNodeInfo{}); err == nil {
		t.Error("empty datanode ID accepted")
	}
	if _, err := nn.Create(""); err == nil {
		t.Error("empty path accepted")
	}
	if _, err := nn.AddBlock("/missing", ""); err == nil {
		t.Error("AddBlock on missing file accepted")
	}
	if _, err := nn.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.AddBlock("/f", ""); err == nil {
		t.Error("AddBlock with no datanodes accepted")
	}
	if err := nn.Complete("/f", -1); err == nil {
		t.Error("negative size accepted")
	}
	if err := nn.Complete("/f", 0); err != nil {
		t.Fatal(err)
	}
	if err := nn.Complete("/f", 0); err == nil {
		t.Error("double Complete accepted")
	}
	if _, err := nn.AddBlock("/f", ""); err == nil {
		t.Error("AddBlock on sealed file accepted")
	}
}

func TestNameNodeUnregister(t *testing.T) {
	nn := NewNameNode(2)
	for i := 0; i < 3; i++ {
		nn.Register(DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("a%d", i)})
	}
	nn.Unregister("dn-1")
	nn.Unregister("dn-1") // idempotent
	nodes := nn.DataNodes()
	if len(nodes) != 2 || nodes[0].ID != "dn-0" || nodes[1].ID != "dn-2" {
		t.Errorf("DataNodes = %v", nodes)
	}
	// Placement must only use live nodes.
	nn.Create("/f")
	loc, err := nn.AddBlock("/f", "dn-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range loc.Replicas {
		if r.ID == "dn-1" {
			t.Error("block placed on unregistered node")
		}
	}
}

func TestBlockIDsNeverReused(t *testing.T) {
	c := testCluster(t, 2, 1)
	client := c.ClientAt(0, WithBlockSize(64))
	seen := map[BlockID]bool{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("/f%d", i)
		writeFile(t, client, name, randomData(300))
		info, _ := c.NameNode.Stat(name)
		for _, b := range info.Blocks {
			if seen[b.ID] {
				t.Fatalf("block id %d reused", b.ID)
			}
			seen[b.ID] = true
		}
		client.Remove(name)
	}
}

func TestDataNodeDirectAPI(t *testing.T) {
	tr := NewInProcTransport()
	dn := NewDataNode(DataNodeInfo{ID: "dn-0", Addr: "dn-0"}, tr)
	if err := dn.WriteBlock(1, []byte("abc"), nil); err != nil {
		t.Fatal(err)
	}
	data, err := dn.ReadBlock(1)
	if err != nil || string(data) != "abc" {
		t.Fatalf("ReadBlock: %q %v", data, err)
	}
	if _, err := dn.ReadBlock(2); err == nil {
		t.Error("missing block read succeeded")
	}
	if err := dn.DeleteBlock(1); err != nil {
		t.Fatal(err)
	}
	if err := dn.DeleteBlock(1); err != nil {
		t.Errorf("idempotent delete failed: %v", err)
	}
	if len(dn.BlockIDs()) != 0 || dn.StoredBytes() != 0 {
		t.Error("counters nonzero after delete")
	}
}

func TestInProcTransportErrors(t *testing.T) {
	tr := NewInProcTransport()
	if _, err := tr.NameNode(); err == nil {
		t.Error("missing namenode resolved")
	}
	if _, err := tr.DataNode(DataNodeInfo{ID: "x"}); err == nil {
		t.Error("missing datanode resolved")
	}
	if _, err := NewCluster(0, 1); err == nil {
		t.Error("empty cluster accepted")
	}
}

// The write buffer holds at most one block: written in small pieces, a file
// of several blocks never makes the writer allocate past the block size.
func TestWriterBufferCappedAtBlockSize(t *testing.T) {
	c := testCluster(t, 3, 2)
	const blockSize = 4096
	client := c.ClientAt(0, WithBlockSize(blockSize))
	data := randomData(3*blockSize + 10)
	w, err := client.Create("/cap")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 100 {
		end := off + 100
		if end > len(data) {
			end = len(data)
		}
		if n, err := w.Write(data[off:end]); err != nil || n != end-off {
			t.Fatalf("Write = %d, %v", n, err)
		}
		if got := cap(w.(*fileWriter).buf); got > blockSize {
			t.Fatalf("write buffer grew to %d bytes, block size is %d", got, blockSize)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, client, "/cap"); !bytes.Equal(got, data) {
		t.Error("piecewise-written file does not read back")
	}
}

// Reads try the local replica first and the others in pipeline order,
// without disturbing the caller's location.
func TestReadOrderLocalFirst(t *testing.T) {
	c := testCluster(t, 4, 3)
	writer := c.ClientAt(0)
	writeFile(t, writer, "/order", randomData(100))
	nn, _ := c.Transport.NameNode()
	info, err := nn.Stat("/order")
	if err != nil {
		t.Fatal(err)
	}
	loc := info.Blocks[0]
	before := append([]DataNodeInfo(nil), loc.Replicas...)
	last := before[len(before)-1]
	// With every replica but the reader's local one down, a read succeeds
	// without a failover only if the local replica was tried first.
	for i, dn := range c.DataNodes {
		c.DataNodes[i].SetDown(dn.Info().ID != last.ID)
	}
	reader := NewClient(c.Transport, WithLocalNode(last.ID))
	if _, err := reader.readBlock(loc); err != nil {
		t.Fatal(err)
	}
	if got := reader.Stats().ReadFailovers; got != 0 {
		t.Errorf("%d failovers: the local replica %s was not tried first", got, last.ID)
	}
	if !reflect.DeepEqual(loc.Replicas, before) {
		t.Errorf("readBlock reordered the caller's replicas: %v, was %v", loc.Replicas, before)
	}
}
