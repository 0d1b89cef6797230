package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"preemptsched/internal/obs"
)

// corruptOneReplica flips a bit in the stored copy of every block of one
// DataNode and returns how many replicas it damaged.
func corruptOneReplica(dn *DataNode) int {
	n := 0
	for _, id := range dn.BlockIDs() {
		if dn.CorruptStoredBlock(id, 3) {
			n++
		}
	}
	return n
}

// verifyAllReplicas fails the test if any stored replica anywhere in the
// cluster fails checksum verification.
func verifyAllReplicas(t *testing.T, dns []*DataNode) {
	t.Helper()
	for _, dn := range dns {
		for _, id := range dn.BlockIDs() {
			if err := dn.VerifyBlock(id); err != nil {
				t.Errorf("%s block %d: %v", dn.Info().ID, id, err)
			}
		}
	}
}

// TestCorruptReadFailsOverAndHeals: a client reading a bit-flipped local
// replica must detect it via checksums, fail over to a clean copy, report
// the bad replica, and the NameNode must quarantine it and re-replicate
// from a verified survivor — the read itself never fails.
func TestCorruptReadFailsOverAndHeals(t *testing.T) {
	c := testCluster(t, 3, 3)
	reg := obs.NewRegistry()
	c.NameNode.Instrument(reg)
	client := c.ClientAt(0, WithObserver(reg))

	data := randomData(4000)
	writeFile(t, client, "/f", data)

	if n := corruptOneReplica(c.DataNodes[0]); n == 0 {
		t.Fatal("no replicas corrupted")
	}
	if got := readFile(t, client, "/f"); !bytes.Equal(got, data) {
		t.Fatal("read of minority-corrupted file returned wrong bytes")
	}
	if st := client.Stats(); st.CorruptReads == 0 {
		t.Error("client counted no corrupt reads")
	}

	// The quarantine pipeline must have healed the cluster back to full
	// replication with verified copies only.
	info, err := c.NameNode.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range info.Blocks {
		if len(blk.Replicas) != 3 {
			t.Errorf("block %d has %d replicas after heal, want 3", blk.ID, len(blk.Replicas))
		}
	}
	verifyAllReplicas(t, c.DataNodes)

	snap := reg.Snapshot()
	if snap.Counter("dfs.namenode.replicas.quarantined") == 0 {
		t.Error("no replicas quarantined")
	}
	if snap.Counter("dfs.namenode.corrupt.rereplicated") == 0 {
		t.Error("no corrupt replicas re-replicated")
	}
	if snap.Counter("dfs.namenode.corrupt.lost") != 0 {
		t.Error("counted lost blocks in a minority-corruption scenario")
	}
}

// TestAllReplicasCorruptIsPermanent: when every replica of a block is
// damaged, the read must fail with ErrCorruptBlock identity (a permanent,
// non-retried error) rather than spin on transient classifications.
func TestAllReplicasCorruptIsPermanent(t *testing.T) {
	c := testCluster(t, 2, 2)
	client := c.ClientAt(0)
	writeFile(t, client, "/doomed", randomData(600))
	for _, dn := range c.DataNodes {
		corruptOneReplica(dn)
	}
	r, err := client.Open("/doomed")
	if err == nil {
		_, err = r.Read(make([]byte, 16))
		r.Close()
	}
	if !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("read with all replicas corrupt = %v, want ErrCorruptBlock", err)
	}
	if IsTransient(err) {
		t.Error("ErrCorruptBlock classified as transient")
	}
}

// TestScrubberConvergesToZero: one scrub pass over every node after a
// strict-minority corruption must evict and re-replicate every bad copy;
// the following pass must find a fully clean cluster.
func TestScrubberConvergesToZero(t *testing.T) {
	c := testCluster(t, 4, 3)
	reg := obs.NewRegistry()
	c.NameNode.Instrument(reg)
	for _, dn := range c.DataNodes {
		dn.Instrument(reg)
	}
	client := c.ClientAt(1)
	for i := 0; i < 3; i++ {
		writeFile(t, client, fmt.Sprintf("/s/%d", i), randomData(2000))
	}

	injected := corruptOneReplica(c.DataNodes[2])
	if injected == 0 {
		t.Fatal("no replicas corrupted")
	}

	nn, err := c.Transport.NameNode()
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, dn := range c.DataNodes {
		res := dn.ScrubOnce(nn)
		found += res.Corrupt
		if res.Corrupt != res.Reported {
			t.Errorf("%s: %d corrupt but %d reported", dn.Info().ID, res.Corrupt, res.Reported)
		}
	}
	if found != injected {
		t.Errorf("scrub found %d corrupt replicas, injected %d", found, injected)
	}

	// Second pass proves convergence: zero corrupt replicas remain.
	for _, dn := range c.DataNodes {
		if res := dn.ScrubOnce(nn); res.Corrupt != 0 {
			t.Errorf("%s still holds %d corrupt replicas after heal", dn.Info().ID, res.Corrupt)
		}
	}
	verifyAllReplicas(t, c.DataNodes)

	snap := reg.Snapshot()
	if got := snap.Counter("dfs.scrub.corrupt.found"); got != int64(injected) {
		t.Errorf("dfs.scrub.corrupt.found = %d, want %d", got, injected)
	}
	if got := snap.Counter("dfs.namenode.replicas.quarantined"); got != int64(injected) {
		t.Errorf("dfs.namenode.replicas.quarantined = %d, want %d", got, injected)
	}
	if snap.Counter("dfs.scrub.runs") != 8 {
		t.Errorf("dfs.scrub.runs = %d, want 8", snap.Counter("dfs.scrub.runs"))
	}
}

// TestReportBadReplicaIdempotent: racing reports of the same bad replica
// must quarantine it exactly once. Healing is detached so the fresh copy
// cannot legitimately re-land on the reported node between reports.
func TestReportBadReplicaIdempotent(t *testing.T) {
	c := testCluster(t, 3, 3)
	c.NameNode.AttachTransport(nil)
	reg := obs.NewRegistry()
	c.NameNode.Instrument(reg)
	client := c.ClientAt(0)
	writeFile(t, client, "/idem", randomData(100))

	info, err := c.NameNode.Stat("/idem")
	if err != nil {
		t.Fatal(err)
	}
	bad := info.Blocks[0].Replicas[0]
	for i := 0; i < 3; i++ {
		if err := c.NameNode.ReportBadReplica(info.Blocks[0].ID, bad); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Snapshot().Counter("dfs.namenode.replicas.quarantined"); got != 1 {
		t.Errorf("quarantined %d times, want 1", got)
	}
	if err := c.NameNode.ReportBadReplica(9999, bad); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("report for unknown block = %v, want ErrUnknownBlock", err)
	}
}

// TestBlockReportReconciles: a NameNode that knows the namespace but not
// the replica locations (the journal-recovery state) must relearn them
// from block reports, and tell reporters to delete unreferenced blocks.
func TestBlockReportReconciles(t *testing.T) {
	nn := NewNameNode(2)
	info := DataNodeInfo{ID: "dn-9", Addr: "dn-9"}
	if err := nn.Register(info); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Create("/r"); err != nil {
		t.Fatal(err)
	}
	loc, err := nn.AddBlock("/r", "dn-9")
	if err != nil {
		t.Fatal(err)
	}
	if err := nn.Complete("/r", 10); err != nil {
		t.Fatal(err)
	}
	// Forget the replica set, exactly the state journal replay leaves
	// (locations are deliberately not journaled).
	nn.mu.Lock()
	nn.files["/r"].info.Blocks[0].Replicas = nil
	nn.mu.Unlock()

	stale, err := nn.BlockReport(info, []BlockID{loc.ID, 777})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 || stale[0] != 777 {
		t.Errorf("stale = %v, want [777]", stale)
	}
	// Reporting again must not duplicate the replica entry.
	if _, err := nn.BlockReport(info, []BlockID{loc.ID}); err != nil {
		t.Fatal(err)
	}
	after, err := nn.Stat("/r")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(after.Blocks[0].Replicas); n != 1 {
		t.Errorf("block has %d replica entries after repeated reports, want 1", n)
	}
	if _, err := nn.BlockReport(DataNodeInfo{}, nil); err == nil {
		t.Error("block report with empty ID accepted")
	}
}

// errStubNameNode returns a fixed error from Stat; every other method is
// inherited from the embedded nil interface and panics if reached.
type errStubNameNode struct {
	NameNodeAPI
	err error
}

func (s errStubNameNode) Stat(string) (FileInfo, error) { return FileInfo{}, s.err }

// TestSentinelsRoundTripOverWire is the wire-mapping audit: every sentinel
// in errCodes must keep its errors.Is identity across a real TCP hop, the
// codes must be unique and nonzero, and every sentinel the package exports
// must be in the table.
func TestSentinelsRoundTripOverWire(t *testing.T) {
	exported := []error{
		ErrNotFound, ErrIncomplete, ErrFileOpen, ErrSealed, ErrNoDataNodes,
		ErrBlockMissing, ErrNodeDown, ErrUnknownBlock, ErrCorruptBlock,
	}
	if len(exported) != len(errCodes) {
		t.Fatalf("errCodes has %d entries but the package exports %d sentinels: the wire table is stale",
			len(errCodes), len(exported))
	}
	seen := make(map[uint8]bool)
	for _, sentinel := range exported {
		code := errToCode(sentinel)
		if code == 0 {
			t.Errorf("sentinel %q has no wire code", sentinel)
			continue
		}
		if seen[code] {
			t.Errorf("wire code %d assigned twice", code)
		}
		seen[code] = true
		if back := codeToErr(code); back != sentinel {
			t.Errorf("code %d decodes to %v, want %v", code, back, sentinel)
		}
		// Wrapped errors must map to the same code the bare sentinel does.
		if wc := errToCode(fmt.Errorf("ctx: %w", sentinel)); wc != code {
			t.Errorf("wrapped %q maps to code %d, want %d", sentinel, wc, code)
		}
	}

	for _, sentinel := range exported {
		sentinel := sentinel
		t.Run(sentinel.Error(), func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go Serve(l, errStubNameNode{err: fmt.Errorf("op failed: %w", sentinel)}, nil)
			t.Cleanup(func() { l.Close() })
			transport := NewTCPTransport(l.Addr().String())
			t.Cleanup(transport.Close)
			nn, err := transport.NameNode()
			if err != nil {
				t.Fatal(err)
			}
			_, err = nn.Stat("/x")
			if !errors.Is(err, sentinel) {
				t.Errorf("after TCP hop err = %v, lost identity of %q", err, sentinel)
			}
		})
	}
}

// TestCorruptBlockCrossesTCP: the end-to-end version — a datanode serving
// a bit-flipped block over real TCP must yield ErrCorruptBlock identity at
// the remote caller.
func TestCorruptBlockCrossesTCP(t *testing.T) {
	transport, _, datanodes := startTCPCluster(t, 1, 1)
	client := NewClient(transport)
	writeFile(t, client, "/wire", randomData(256))
	if corruptOneReplica(datanodes[0]) == 0 {
		t.Fatal("nothing corrupted")
	}
	id := datanodes[0].BlockIDs()[0]
	dn, err := transport.DataNode(datanodes[0].Info())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dn.ReadBlock(id); !errors.Is(err, ErrCorruptBlock) {
		t.Fatalf("remote read of corrupt block = %v, want ErrCorruptBlock", err)
	}
}

// TestPlaceReplicas drives the placement rule table-style: the preferred
// node leads when registered, no node appears twice, and a cluster smaller
// than the replication factor yields exactly the live nodes.
func TestPlaceReplicas(t *testing.T) {
	build := func(replication int, nodes ...string) *NameNode {
		nn := NewNameNode(replication)
		for _, id := range nodes {
			if err := nn.Register(DataNodeInfo{ID: id, Addr: id}); err != nil {
				t.Fatal(err)
			}
		}
		return nn
	}
	cases := []struct {
		name        string
		replication int
		nodes       []string
		preferred   string
		wantLen     int
		wantFirst   string
	}{
		{"preferred honored", 3, []string{"dn-0", "dn-1", "dn-2", "dn-3"}, "dn-2", 3, "dn-2"},
		{"unknown preferred ignored", 3, []string{"dn-0", "dn-1", "dn-2"}, "dn-9", 3, ""},
		{"no preferred", 2, []string{"dn-0", "dn-1", "dn-2"}, "", 2, ""},
		{"fewer live than factor", 3, []string{"dn-0", "dn-1"}, "dn-1", 2, "dn-1"},
		{"single node", 3, []string{"dn-0"}, "", 1, "dn-0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nn := build(tc.replication, tc.nodes...)
			// Repeat placements so the round-robin cursor wraps; the
			// invariants must hold at every cursor position.
			for round := 0; round < 5; round++ {
				nn.mu.Lock()
				got := nn.placeReplicas(tc.preferred)
				nn.mu.Unlock()
				if len(got) != tc.wantLen {
					t.Fatalf("round %d: %d replicas, want %d", round, len(got), tc.wantLen)
				}
				if tc.wantFirst != "" && got[0].ID != tc.wantFirst {
					t.Fatalf("round %d: first replica %s, want preferred %s", round, got[0].ID, tc.wantFirst)
				}
				seen := make(map[string]bool)
				for _, r := range got {
					if seen[r.ID] {
						t.Fatalf("round %d: node %s placed twice", round, r.ID)
					}
					seen[r.ID] = true
				}
			}
		})
	}
}
