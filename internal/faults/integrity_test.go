package faults

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"preemptsched/internal/dfs"
	"preemptsched/internal/storage"
)

// newCorruptibleDFS is newTestDFS but keeps the concrete DataNode handles
// so tests can inspect stored replicas directly.
func newCorruptibleDFS(t *testing.T, in *Injector, nodes, repl int) (*dfs.NameNode, dfs.Transport, []*dfs.DataNode) {
	t.Helper()
	inner := dfs.NewInProcTransport()
	nn := dfs.NewNameNode(repl)
	inner.SetNameNode(nn)
	view := WrapTransport(inner, in)
	dns := make([]*dfs.DataNode, nodes)
	for i := 0; i < nodes; i++ {
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		dns[i] = dfs.NewDataNode(info, view)
		inner.AddDataNode(info, dns[i])
		if err := nn.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	nn.AttachTransport(view)
	return nn, view, dns
}

// TestBitFlipStrictMinorityAndScrubHeals: with BitFlipRate=1 and the
// default per-block cap of one flip, every block decays on exactly one
// replica — a strict minority under 3-way replication — so reads must
// still succeed via failover, and one scrub sweep must converge the
// cluster back to zero corrupt replicas.
func TestBitFlipStrictMinorityAndScrubHeals(t *testing.T) {
	in := NewInjector(Plan{Seed: 11, BitFlipRate: 1})
	reg := instrument(in)
	nn, view, dns := newCorruptibleDFS(t, in, 3, 3)
	nn.Instrument(reg)
	cli := dfs.NewClient(view, dfs.WithBlockSize(512), dfs.WithLocalNode("dn-0"))

	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i * 17)
	}
	if err := writeFile(t, cli, "/rot/file", data); err != nil {
		t.Fatal(err)
	}

	flips := injected(reg, ModeBitFlips)
	if flips == 0 {
		t.Fatal("BitFlipRate=1 injected no bit flips")
	}

	// Strict minority: at most one corrupt copy per block.
	countCorrupt := func() map[dfs.BlockID]int {
		corrupt := map[dfs.BlockID]int{}
		for _, dn := range dns {
			for _, id := range dn.BlockIDs() {
				if err := dn.VerifyBlock(id); errors.Is(err, dfs.ErrCorruptBlock) {
					corrupt[id]++
				}
			}
		}
		return corrupt
	}
	corrupt := countCorrupt()
	if int64(len(corrupt)) != flips {
		t.Fatalf("%d blocks corrupt, %d flips injected", len(corrupt), flips)
	}
	for id, n := range corrupt {
		if n != 1 {
			t.Fatalf("block %d has %d corrupt replicas, cap is 1", id, n)
		}
	}

	// Reads fail over past the rotten copies and return the exact bytes.
	r, err := cli.Open("/rot/file")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatalf("read with one corrupt replica per block: %v", err)
	}
	if string(got) != string(data) {
		t.Fatal("read returned wrong bytes")
	}

	// One scrub sweep: every corrupt copy found, evicted, re-replicated.
	// The per-block flip budget is already spent, so the fresh copies
	// written during healing cannot rot again.
	var found int
	for _, dn := range dns {
		res := dn.ScrubOnce(nn)
		found += res.Corrupt
		if res.Corrupt != res.Reported {
			t.Fatalf("scrub on %s found %d but reported %d", dn.Info().ID, res.Corrupt, res.Reported)
		}
	}
	if left := countCorrupt(); len(left) != 0 {
		t.Fatalf("cluster still has corrupt replicas after scrubbing: %v", left)
	}
	snap := reg.Snapshot()
	if snap.Counter("dfs.namenode.replicas.quarantined") == 0 ||
		snap.Counter("dfs.namenode.corrupt.rereplicated") == 0 {
		t.Fatal("quarantine/re-replication counters did not move")
	}
	if snap.Counter("dfs.namenode.corrupt.lost") != 0 {
		t.Fatal("strict-minority corruption lost a block")
	}
	if int64(found) != flips {
		t.Fatalf("scrub found %d corrupt replicas, %d flips injected", found, flips)
	}
}

// TestSilentTruncationLiesToTheWriter: the truncating writer must report
// every Write and the Close as successful while publishing a short
// object — and the checkpoint layer's verification must then catch the
// damage that the write path never surfaced.
func TestSilentTruncationLiesToTheWriter(t *testing.T) {
	in := NewInjector(Plan{Seed: 2, SilentTruncateRate: 1, SilentTruncateBytes: 64})
	reg := instrument(in)
	st := WrapStore(storage.NewMemStore(), in)

	w, err := st.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300)
	n, err := w.Write(payload)
	if n != len(payload) || err != nil {
		t.Fatalf("truncating writer confessed: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("truncating close confessed: %v", err)
	}
	size, err := st.Size("obj")
	if err != nil {
		t.Fatal(err)
	}
	if size != 64 {
		t.Fatalf("stored %d bytes, want silent truncation to 64", size)
	}
	if injected(reg, ModeSilentTruncations) == 0 {
		t.Fatalf("counters: %v", reg.Snapshot().Counters)
	}
}

// TestStoreCrashAfterCreates: the Nth create completes and then the store
// is dead — the N+1st create and every subsequent operation fail. This is
// the "NameNode dies between journal records" primitive.
func TestStoreCrashAfterCreates(t *testing.T) {
	in := NewInjector(Plan{Seed: 4, StoreCrashAfterCreates: 2})
	reg := instrument(in)
	st := WrapStore(storage.NewMemStore(), in)

	for i := 0; i < 2; i++ {
		w, err := st.Create(fmt.Sprintf("edits/%d", i))
		if err != nil {
			t.Fatalf("create %d before crash point: %v", i, err)
		}
		w.Write([]byte("record"))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Create("edits/2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash create = %v, want injected failure", err)
	}
	if _, err := st.Open("edits/0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash open = %v, want injected failure", err)
	}
	if _, err := st.List(""); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash list = %v, want injected failure", err)
	}
	if injected(reg, ModeStoreCrashOps) == 0 {
		t.Fatalf("counters: %v", reg.Snapshot().Counters)
	}
}

// TestNameNodeCrashRecoveryMatchesControl is the crash-recovery
// acceptance scenario: the NameNode journals into a store that dies
// between records partway through a live client workload. A fresh
// NameNode replaying the surviving journal, reconciled by block reports
// from the DataNodes, must reach metadata byte-identical to the live
// NameNode — which is a valid never-crashed control because a failed
// journal append abandons the mutation before it is applied, so the live
// node's state never runs ahead of the durable log.
func TestNameNodeCrashRecoveryMatchesControl(t *testing.T) {
	durable := storage.NewMemStore()
	in := NewInjector(Plan{Seed: 6, StoreCrashAfterCreates: 12})
	reg := instrument(in)
	journal := WrapStore(durable, in)

	inner := dfs.NewInProcTransport()
	nn := dfs.NewNameNode(3)
	if _, err := nn.AttachJournal(journal); err != nil {
		t.Fatal(err)
	}
	inner.SetNameNode(nn)
	var dns []*dfs.DataNode
	for i := 0; i < 3; i++ {
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		dn := dfs.NewDataNode(info, inner)
		inner.AddDataNode(info, dn)
		if err := nn.Register(info); err != nil {
			t.Fatal(err)
		}
		dns = append(dns, dn)
	}
	cli := dfs.NewClient(inner, dfs.WithBlockSize(512), dfs.WithLocalNode("dn-0"))

	// Drive writes (and one delete) until the dying journal store kills an
	// operation mid-file.
	var failedAt = -1
	for i := 0; i < 20; i++ {
		if err := writeFile(t, cli, fmt.Sprintf("/wal/%d", i), make([]byte, 1300)); err != nil {
			failedAt = i
			break
		}
		if i == 1 {
			if err := cli.Remove("/wal/0"); err != nil {
				failedAt = i
				break
			}
		}
	}
	if failedAt <= 0 {
		t.Fatalf("workload failed at %d; want a crash after some progress", failedAt)
	}
	if injected(reg, ModeStoreCrashOps) == 0 {
		t.Fatal("journal store never crashed")
	}

	// Recover from the durable (inner) store, as a restarted process would.
	recovered := dfs.NewNameNode(3)
	if _, err := recovered.AttachJournal(durable); err != nil {
		t.Fatalf("replaying journal after crash: %v", err)
	}
	for _, dn := range dns {
		stale, err := recovered.BlockReport(dn.Info(), dn.BlockIDs())
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range stale {
			_ = dn.DeleteBlock(id)
		}
	}

	want, got := nn.MetadataDigest(), recovered.MetadataDigest()
	if want == "" {
		t.Fatal("control digest empty — workload made no progress before the crash")
	}
	if got != want {
		t.Fatalf("recovered metadata diverges from never-crashed control\ncontrol:\n%s\nrecovered:\n%s", want, got)
	}
}
