package dfs

import (
	"bytes"
	"testing"
)

func TestDecommissionReReplicates(t *testing.T) {
	c := testCluster(t, 4, 2)
	client := c.ClientAt(0, WithBlockSize(512))
	data := randomData(3000)
	writeFile(t, client, "/d", data)

	// Every block currently has two replicas, the first on dn-0.
	report := c.NameNode.Decommission("dn-0")
	if report.BlocksAffected == 0 {
		t.Fatal("dn-0 held no replicas; weak test")
	}
	if report.Recovered != report.BlocksAffected || report.Lost != 0 || report.Degraded != 0 {
		t.Fatalf("report = %+v, want all recovered", report)
	}
	// The replication factor is restored: every block again has 2
	// replicas, none on dn-0.
	info, err := c.NameNode.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range info.Blocks {
		if len(b.Replicas) != 2 {
			t.Errorf("block %d has %d replicas after recovery", b.ID, len(b.Replicas))
		}
		for _, r := range b.Replicas {
			if r.ID == "dn-0" {
				t.Errorf("block %d still lists the decommissioned node", b.ID)
			}
		}
	}
	// Kill the node for real and read through a fresh client: content
	// must be intact from the re-replicated copies.
	c.DataNodes[0].SetDown(true)
	if got := readFile(t, c.ClientAt(1), "/d"); !bytes.Equal(got, data) {
		t.Error("content mismatch after decommission")
	}
}

func TestDecommissionReportsLostBlocks(t *testing.T) {
	// Replication factor 1: removing the holder loses blocks.
	c := testCluster(t, 2, 1)
	client := c.ClientAt(0, WithBlockSize(256))
	writeFile(t, client, "/single", randomData(600))
	info, _ := c.NameNode.Stat("/single")
	holder := info.Blocks[0].Replicas[0].ID

	report := c.NameNode.Decommission(holder)
	if report.Lost != report.BlocksAffected || report.Lost == 0 {
		t.Fatalf("report = %+v, want all lost", report)
	}
	// Reads must now fail rather than return wrong data.
	r, err := client.Open("/single")
	if err == nil {
		buf := make([]byte, 16)
		if _, err := r.Read(buf); err == nil {
			t.Error("read of lost block succeeded")
		}
	}
}

func TestDecommissionDegradedWhenNoTarget(t *testing.T) {
	// Two nodes, replication 2: every block is on both. Removing one
	// leaves no eligible target, so blocks stay readable but degraded.
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0, WithBlockSize(512))
	data := randomData(1500)
	writeFile(t, client, "/deg", data)
	report := c.NameNode.Decommission("dn-1")
	if report.Degraded != report.BlocksAffected || report.Degraded == 0 {
		t.Fatalf("report = %+v, want all degraded", report)
	}
	if got := readFile(t, c.ClientAt(0), "/deg"); !bytes.Equal(got, data) {
		t.Error("degraded file unreadable")
	}
}

// TestDecommissionFallsBackToNextSurvivor: when the first surviving
// replica is corrupt, the re-replication copies from the next verified one
// instead of leaving the block degraded.
func TestDecommissionFallsBackToNextSurvivor(t *testing.T) {
	c := testCluster(t, 4, 3)
	data := randomData(300)
	writeFile(t, c.ClientAt(0, WithBlockSize(512)), "/fallback", data)
	before, err := c.NameNode.Stat("/fallback")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Blocks) != 1 || len(before.Blocks[0].Replicas) != 3 {
		t.Fatalf("want one block on 3 replicas, got %+v", before.Blocks)
	}
	b := before.Blocks[0]
	held := map[string]bool{}
	for _, r := range b.Replicas {
		held[r.ID] = true
	}
	node := func(id string) (int, *DataNode) {
		for i, dn := range c.DataNodes {
			if dn.Info().ID == id {
				return i, dn
			}
		}
		t.Fatalf("no datanode %s", id)
		return 0, nil
	}
	if _, dn := node(b.Replicas[1].ID); !dn.CorruptStoredBlock(b.ID, 7) {
		t.Fatal("nothing corrupted")
	}

	report := c.NameNode.Decommission(b.Replicas[0].ID)
	if want := (ReplicationReport{BlocksAffected: 1, Recovered: 1}); *report != want {
		t.Fatalf("report = %+v, want %+v", *report, want)
	}
	after, err := c.NameNode.Stat("/fallback")
	if err != nil {
		t.Fatal(err)
	}
	target := ""
	for _, r := range after.Blocks[0].Replicas {
		if !held[r.ID] {
			target = r.ID
		}
	}
	if target == "" {
		t.Fatalf("no fresh replica recorded: %v", after.Blocks[0].Replicas)
	}
	_, gone := node(b.Replicas[0].ID)
	gone.SetDown(true)
	i, dn := node(target)
	if got, err := dn.ReadBlock(b.ID); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("target %s holds %d bytes (err %v), want the verified block", target, len(got), err)
	}
	if got := readFile(t, c.ClientAt(i), "/fallback"); !bytes.Equal(got, data) {
		t.Error("content mismatch read from the target node")
	}
}

// TestDecommissionOverTCP runs a real decommission over the TCP transport:
// the NameNode copies every block dn-0 held from a survivor onto the free
// node, and the file reads back with dn-0 down.
func TestDecommissionOverTCP(t *testing.T) {
	transport, nn, datanodes := startTCPCluster(t, 3, 2)
	client := NewClient(transport, WithBlockSize(256), WithLocalNode("dn-0"))
	data := randomData(1200)
	writeFile(t, client, "/tcp", data)

	before, err := nn.Stat("/tcp")
	if err != nil {
		t.Fatal(err)
	}
	report := nn.Decommission("dn-0")
	if want := len(before.Blocks); report.BlocksAffected != want || report.Recovered != want {
		t.Fatalf("report = %+v, want all %d blocks recovered", *report, want)
	}
	datanodes[0].SetDown(true)
	after, err := nn.Stat("/tcp")
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range after.Blocks {
		// The fresh replica is the one the block did not list before.
		held := map[string]bool{}
		for _, r := range before.Blocks[bi].Replicas {
			held[r.ID] = true
		}
		var fresh []string
		for _, r := range b.Replicas {
			if !held[r.ID] {
				fresh = append(fresh, r.ID)
			}
		}
		if len(b.Replicas) != 2 || len(fresh) != 1 {
			t.Fatalf("block %d replicas %v after recovery, want one survivor and one fresh copy", b.ID, b.Replicas)
		}
		for _, dn := range datanodes {
			if dn.Info().ID != fresh[0] {
				continue
			}
			if _, err := dn.ReadBlock(b.ID); err != nil {
				t.Errorf("block %d missing on target %s: %v", b.ID, fresh[0], err)
			}
		}
	}
	reader := NewClient(transport, WithLocalNode("dn-1"))
	if got := readFile(t, reader, "/tcp"); !bytes.Equal(got, data) {
		t.Error("content mismatch after decommission over TCP")
	}
}
