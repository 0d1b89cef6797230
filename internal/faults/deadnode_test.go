package faults

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"preemptsched/internal/dfs"
)

// newTestDFSN builds an n-node in-process DFS with the given replication
// factor, every client, DataNode and NameNode copy routed through the
// injector.
func newTestDFSN(t *testing.T, in *Injector, n, replication int) (*dfs.NameNode, dfs.Transport) {
	t.Helper()
	inner := dfs.NewInProcTransport()
	nn := dfs.NewNameNode(replication)
	inner.SetNameNode(nn)
	view := WrapTransport(inner, in)
	nn.AttachTransport(view)
	for i := 0; i < n; i++ {
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		inner.AddDataNode(info, dfs.NewDataNode(info, view))
		if err := nn.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	return nn, view
}

// TestDecommissionRacesDeadNodeTraffic: dn-1 crashes mid-pipeline while
// clients keep writing, and the NameNode decommission sweep starts the
// instant it dies — concurrent with the live traffic still bouncing
// RPCs off the corpse. The re-replication books must balance (every
// block the dead node held accounted recovered, degraded, or lost), no
// block may still list the decommissioned node, and every file whose
// Close succeeded must read back intact afterwards.
func TestDecommissionRacesDeadNodeTraffic(t *testing.T) {
	crashed := make(chan string, 1)
	in := NewInjector(Plan{
		Seed:             11,
		CrashNode:        "dn-1",
		CrashAfterWrites: 8,
		OnCrash:          func(id string) { crashed <- id },
	})
	reg := instrument(in)
	nn, view := newTestDFSN(t, in, 5, 2)

	blob := func(seed, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(seed*31 + i*17)
		}
		return b
	}

	// Seed two files through dn-1 while it is healthy — 6 of its 8
	// pre-crash block writes — guaranteeing it holds replicas the sweep
	// must move.
	files := map[string][]byte{}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("/seed/%d", i)
		data := blob(i, 1500)
		cli := dfs.NewClient(view, dfs.WithBlockSize(512), dfs.WithLocalNode("dn-1"))
		if err := writeFile(t, cli, name, data); err != nil {
			t.Fatalf("seed write %s: %v", name, err)
		}
		files[name] = data
	}

	var (
		report    *dfs.ReplicationReport
		sweepDone = make(chan struct{})
	)
	go func() {
		defer close(sweepDone)
		report = nn.Decommission(<-crashed)
	}()

	// Live traffic: the writers pinned to dn-1 trip the crash
	// mid-pipeline; the rest keep the cluster busy throughout the sweep.
	// Failed writes are expected once the node is dead — durability is
	// only owed to files whose Close succeeded.
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w, local := range []string{"dn-1", "dn-1", "dn-2", "dn-3"} {
		w, local := w, local
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := dfs.NewClient(view, dfs.WithBlockSize(512), dfs.WithLocalNode(local))
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("/live/%d/%d", w, i)
				data := blob(w*10+i, 1500)
				if err := writeFile(t, cli, name, data); err != nil {
					continue
				}
				mu.Lock()
				files[name] = data
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-sweepDone

	if report.BlocksAffected == 0 {
		t.Fatal("dn-1 held no replicas; weak test")
	}
	if got := report.Recovered + report.Degraded + report.Lost; got != report.BlocksAffected {
		t.Fatalf("books out of balance: %+v (recovered+degraded+lost = %d)", *report, got)
	}
	if got := injected(reg, ModeNodeCrashes); got != 1 {
		t.Fatalf("node crashes = %d, want 1", got)
	}
	if injected(reg, ModeDeadNodeRPCs) == 0 {
		t.Fatal("no RPC ever hit the corpse: the race never happened")
	}

	// The seed files wrote at replication 2 before the crash, so losing
	// one node loses no data — and the sweep must have scrubbed dn-1
	// from their block maps.
	for i := 0; i < 2; i++ {
		info, err := nn.Stat(fmt.Sprintf("/seed/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range info.Blocks {
			for _, r := range b.Replicas {
				if r.ID == "dn-1" {
					t.Errorf("block %d still lists the decommissioned node", b.ID)
				}
			}
		}
	}
	reader := dfs.NewClient(view, dfs.WithBlockSize(512), dfs.WithLocalNode("dn-2"))
	for name, want := range files {
		r, err := reader.Open(name)
		if err != nil {
			t.Errorf("open %s: %v", name, err)
			continue
		}
		got, err := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Errorf("read %s: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s corrupted across crash + decommission", name)
		}
	}
}
