package dfs

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"preemptsched/internal/obs"
)

// chaosCluster builds an n-node in-process DFS and returns its pieces.
func chaosCluster(t *testing.T, n, repl int) (*Cluster, []*DataNode) {
	t.Helper()
	c, err := NewCluster(n, repl)
	if err != nil {
		t.Fatal(err)
	}
	return c, c.DataNodes
}

// TestCrashMidWriteRebuildsPipeline kills a replica between blocks of one
// file write: the client must rebuild the pipeline around the dead node,
// report the surviving replica set, and the file must read back intact
// from the survivors.
func TestCrashMidWriteRebuildsPipeline(t *testing.T) {
	c, dns := chaosCluster(t, 4, 3)
	reg := obs.NewRegistry()
	for _, dn := range dns {
		dn.Instrument(reg)
	}
	cli := c.ClientAt(0, WithBlockSize(256), WithObserver(reg))

	data := make([]byte, 4*256)
	for i := range data {
		data[i] = byte(i)
	}

	w, err := cli.Create("/chaos/mid")
	if err != nil {
		t.Fatal(err)
	}
	// First block lands on all replicas.
	if _, err := w.Write(data[:256]); err != nil {
		t.Fatal(err)
	}
	// A replica of the write pipeline dies before the rest of the file.
	dns[1].SetDown(true)
	if _, err := w.Write(data[256:]); err != nil {
		t.Fatalf("write after replica crash: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close after replica crash: %v", err)
	}
	if cli.Stats().PipelineRebuilds == 0 {
		t.Fatal("no pipeline rebuild recorded despite a dead replica")
	}
	// One injected crash, and the registry's absorbed-fallback counter must
	// agree with the client's own tally.
	snap := reg.Snapshot()
	if got := snap.Counter("dfs.client.pipeline.rebuilds"); got != int64(cli.Stats().PipelineRebuilds) {
		t.Errorf("dfs.client.pipeline.rebuilds = %d, Stats().PipelineRebuilds = %d",
			got, cli.Stats().PipelineRebuilds)
	}
	if snap.Counter("dfs.datanode.block.writes") == 0 {
		t.Error("instrumented DataNodes recorded no block writes")
	}
	if h := snap.Hist("dfs.client.block.write.seconds"); h.Count == 0 {
		t.Error("no block-write latency observations recorded")
	}

	// Every block written after the crash must report a replica set that
	// excludes the dead node. (The pre-crash block legitimately still
	// lists it; readers fail over.)
	info, err := cli.stat("/chaos/mid")
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range info.Blocks {
		if len(b.Replicas) == 0 {
			t.Fatalf("block %d has no replicas", b.ID)
		}
		if i == 0 {
			continue
		}
		for _, r := range b.Replicas {
			if r.ID == "dn-1" {
				t.Fatalf("post-crash block %d still lists dead replica dn-1: %v", b.ID, b.Replicas)
			}
		}
	}

	// Readback must succeed from the survivors, from any client.
	r, err := c.ClientAt(2).Open("/chaos/mid")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("readback mismatch after mid-write crash")
	}
}

// TestReadFailoverAcrossReplicas writes a file, downs the reader's local
// replica, and verifies reads fail over to surviving copies.
func TestReadFailoverAcrossReplicas(t *testing.T) {
	c, dns := chaosCluster(t, 3, 3)
	reg := obs.NewRegistry()
	cli := c.ClientAt(0, WithBlockSize(128), WithObserver(reg))

	data := []byte("failover payload spanning several blocks of the file")
	w, err := cli.Create("/chaos/failover")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The local replica (preferred read source) goes down.
	dns[0].SetDown(true)
	r, err := cli.Open("/chaos/failover")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatalf("read with local replica down: %v", err)
	}
	if string(got) != string(data) {
		t.Fatal("failover readback mismatch")
	}
	if cli.Stats().ReadFailovers == 0 {
		t.Fatal("no read failover recorded despite the local replica being down")
	}
	// The downed replica's reads were absorbed by failover; the registry
	// counter must agree with the client's own tally.
	snap := reg.Snapshot()
	if got := snap.Counter("dfs.client.read.failovers"); got != int64(cli.Stats().ReadFailovers) {
		t.Errorf("dfs.client.read.failovers = %d, Stats().ReadFailovers = %d",
			got, cli.Stats().ReadFailovers)
	}
	if h := snap.Hist("dfs.client.block.read.seconds"); h.Count == 0 {
		t.Error("no block-read latency observations recorded")
	}
}

// TestHeartbeatLivenessSweep drives the NameNode's liveness view with a
// fake clock: nodes that stop heartbeating are declared dead and swept
// (decommissioned with their blocks re-replicated).
func TestHeartbeatLivenessSweep(t *testing.T) {
	c, _ := chaosCluster(t, 4, 2)
	nn := c.NameNode

	now := time.Unix(0, 0)
	nn.SetClock(func() time.Time { return now })

	// Re-stamp every node under the fake clock.
	for i := 0; i < 4; i++ {
		if err := nn.Heartbeat(DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	cli := c.ClientAt(1, WithBlockSize(64))
	data := make([]byte, 6*64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	w, err := cli.Create("/chaos/live")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Time passes; only three nodes keep heartbeating.
	now = now.Add(30 * time.Second)
	for _, id := range []string{"dn-0", "dn-1", "dn-3"} {
		if err := nn.Heartbeat(DataNodeInfo{ID: id, Addr: id}); err != nil {
			t.Fatal(err)
		}
	}

	dead := nn.DeadNodes(10 * time.Second)
	if len(dead) != 1 || dead[0] != "dn-2" {
		t.Fatalf("dead nodes = %v, want [dn-2]", dead)
	}

	reports := nn.SweepDead(10 * time.Second)
	if _, ok := reports["dn-2"]; !ok || len(reports) != 1 {
		t.Fatalf("sweep reports = %v, want exactly dn-2", reports)
	}

	// The namespace must no longer reference the swept node, and the data
	// must still be readable.
	info, err := cli.stat("/chaos/live")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range info.Blocks {
		for _, rep := range b.Replicas {
			if rep.ID == "dn-2" {
				t.Fatalf("block %d still on swept node: %v", b.ID, b.Replicas)
			}
		}
	}
	r, err := cli.Open("/chaos/live")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("readback mismatch after liveness sweep")
	}

	// A second sweep finds nothing: the dead node was unregistered.
	if again := nn.SweepDead(10 * time.Second); len(again) != 0 {
		t.Fatalf("second sweep re-decommissioned: %v", again)
	}
}

// TestSentinelIdentityInProc: sentinel errors keep their identity through
// the in-process transport, so errors.Is-based retry classification works.
func TestSentinelIdentityInProc(t *testing.T) {
	c, dns := chaosCluster(t, 2, 2)

	nn, err := c.Transport.NameNode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Stat("/no/such/file"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat of missing file = %v, want ErrNotFound identity", err)
	}
	dns[0].SetDown(true)
	dn, err := c.Transport.DataNode(DataNodeInfo{ID: "dn-0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dn.ReadBlock(1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("read from downed node = %v, want ErrNodeDown identity", err)
	}
}
