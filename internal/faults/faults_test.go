package faults

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"preemptsched/internal/dfs"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
)

// newTestDFS builds a 3-node in-process DFS whose clients and DataNodes
// all go through the injector's transport wrapper.
func newTestDFS(t *testing.T, in *Injector) (*dfs.NameNode, dfs.Transport) {
	t.Helper()
	inner := dfs.NewInProcTransport()
	nn := dfs.NewNameNode(3)
	inner.SetNameNode(nn)
	view := WrapTransport(inner, in)
	for i := 0; i < 3; i++ {
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		inner.AddDataNode(info, dfs.NewDataNode(info, view))
		if err := nn.Register(info); err != nil {
			t.Fatal(err)
		}
	}
	return nn, view
}

// instrument hands in a registry of the test's own, the one place its
// faults are counted.
func instrument(in *Injector) *obs.Registry {
	reg := obs.NewRegistry()
	in.Instrument(reg)
	return reg
}

// injected reads mode's faults.injected.<mode> counter from reg.
func injected(reg *obs.Registry, mode string) int64 {
	return reg.CounterValue("faults.injected." + mode)
}

func writeFile(t *testing.T, cli *dfs.Client, name string, data []byte) error {
	t.Helper()
	w, err := cli.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// TestInjectorDeterminism: the same seed must produce the same fault
// sequence, and injected errors must wrap ErrInjected.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []string {
		in := NewInjector(Plan{Seed: 42, RPCErrorRate: 0.3})
		_, view := newTestDFS(t, in)
		dn, err := view.DataNode(dfs.DataNodeInfo{ID: "dn-0"})
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []string
		for i := 0; i < 200; i++ {
			if _, err := dn.ReadBlock(dfs.BlockID(i)); errors.Is(err, ErrInjected) {
				outcomes = append(outcomes, fmt.Sprintf("fault@%d", i))
			}
		}
		return outcomes
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("30% error rate injected nothing in 200 ops")
	}
	if len(a) != len(b) {
		t.Fatalf("two seeded runs diverged: %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d at different op: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestRetriesAbsorbRPCErrors: a moderate error rate must be fully hidden
// by the client's retry/failover logic.
func TestRetriesAbsorbRPCErrors(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, RPCErrorRate: 0.15, NameNodeErrorRate: 0.05})
	reg := instrument(in)
	_, view := newTestDFS(t, in)
	cli := dfs.NewClient(view, dfs.WithBlockSize(512), dfs.WithLocalNode("dn-0"))

	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := writeFile(t, cli, "/chaos/file", data); err != nil {
		t.Fatalf("write under faults: %v", err)
	}
	r, err := cli.Open("/chaos/file")
	if err != nil {
		t.Fatalf("open under faults: %v", err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatalf("read under faults: %v", err)
	}
	if string(got) != string(data) {
		t.Fatal("data corrupted by fault recovery")
	}
	if len(reg.Snapshot().Counters) == 0 {
		t.Fatal("no faults fired")
	}
	if cli.Stats().Retries == 0 {
		t.Fatal("faults fired but the client never retried")
	}
}

// TestCrashAtNthWrite: the configured node dies at its Nth block write,
// OnCrash fires exactly once, and every later RPC to it fails.
func TestCrashAtNthWrite(t *testing.T) {
	var crashed []string
	in := NewInjector(Plan{
		Seed:             1,
		CrashNode:        "dn-1",
		CrashAfterWrites: 2,
		OnCrash:          func(id string) { crashed = append(crashed, id) },
	})
	reg := instrument(in)
	_, view := newTestDFS(t, in)
	dn, err := view.DataNode(dfs.DataNodeInfo{ID: "dn-1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := dn.WriteBlock(dfs.BlockID(i), []byte("x"), nil); err != nil {
			t.Fatalf("write %d before crash point: %v", i, err)
		}
	}
	if err := dn.WriteBlock(dfs.BlockID(2), []byte("x"), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("crash write = %v, want injected failure", err)
	}
	if _, err := dn.ReadBlock(dfs.BlockID(0)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read from crashed node = %v, want injected failure", err)
	}
	if len(crashed) != 1 || crashed[0] != "dn-1" {
		t.Fatalf("OnCrash calls = %v, want exactly [dn-1]", crashed)
	}
	if injected(reg, ModeNodeCrashes) != 1 || injected(reg, ModeDeadNodeRPCs) == 0 {
		t.Fatalf("counters: %v", reg.Snapshot().Counters)
	}
}

// TestTornWriteNeverPublishes: a torn store write must fail the close, so
// the half-written object is never mistaken for a published one.
func TestTornWriteNeverPublishes(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, TornWriteRate: 1, TornWriteBytes: 8})
	reg := instrument(in)
	st := WrapStore(storage.NewMemStore(), in)

	w, err := st.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 64)); !errors.Is(err, ErrInjected) {
		t.Fatalf("oversize write = %v, want injected failure", err)
	}
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("close of torn write = %v, want injected failure", err)
	}
	if injected(reg, ModeTornWrites) != 1 {
		t.Fatalf("counters: %v", reg.Snapshot().Counters)
	}
}

// TestArmedWriterThatLosesNothingCountsNothing: a writer armed to tear or
// to truncate past more bytes than are written publishes the object whole,
// and neither series counts it — an injected fault is counted where it
// loses data, not where it is armed.
func TestArmedWriterThatLosesNothingCountsNothing(t *testing.T) {
	for _, tc := range []struct {
		mode string
		plan Plan
	}{
		{ModeTornWrites, Plan{Seed: 3, TornWriteRate: 1, TornWriteBytes: 64}},
		{ModeSilentTruncations, Plan{Seed: 3, SilentTruncateRate: 1, SilentTruncateBytes: 64}},
	} {
		in := NewInjector(tc.plan)
		reg := instrument(in)
		st := WrapStore(storage.NewMemStore(), in)
		w, err := st.Create("obj")
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, err := w.Write(make([]byte, 32)); err != nil {
				t.Fatalf("%s: write under the armed limit = %v", tc.mode, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("%s: close = %v", tc.mode, err)
		}
		if size, err := st.Size("obj"); err != nil || size != 64 {
			t.Fatalf("%s: stored %d bytes (%v), want all 64", tc.mode, size, err)
		}
		if injected(reg, ModeTornWrites) != 0 || injected(reg, ModeSilentTruncations) != 0 {
			t.Errorf("%s: counters %v for a write that lost nothing", tc.mode, reg.Snapshot().Counters)
		}
	}
}

// TestCreateFailRate: Create failures surface as injected errors and are
// counted.
func TestCreateFailRate(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, CreateFailRate: 1})
	reg := instrument(in)
	st := WrapStore(storage.NewMemStore(), in)
	if _, err := st.Create("obj"); !errors.Is(err, ErrInjected) {
		t.Fatalf("create = %v, want injected failure", err)
	}
	if injected(reg, ModeStoreCreateErrors) != 1 {
		t.Fatalf("counters: %v", reg.Snapshot().Counters)
	}
}

// TestInstrumentCountsInPlace: once Instrument hands over the run's registry
// a fault is counted there, as faults.injected.<mode>, and nowhere else.
func TestInstrumentCountsInPlace(t *testing.T) {
	in := NewInjector(Plan{Seed: 5, CreateFailRate: 1})
	private := in.reg
	reg := instrument(in)
	st := WrapStore(storage.NewMemStore(), in)
	for i := 0; i < 3; i++ {
		if _, err := st.Create("obj"); !errors.Is(err, ErrInjected) {
			t.Fatalf("create = %v, want injected failure", err)
		}
	}
	if got := reg.Snapshot().Counters; len(got) != 1 || injected(reg, ModeStoreCreateErrors) != 3 {
		t.Fatalf("registry counters %v, want faults.injected.%s = 3 alone", got, ModeStoreCreateErrors)
	}
	if got := private.Snapshot().Counters; len(got) != 0 {
		t.Fatalf("the injector's private registry counted %v too", got)
	}
}

// TestRPCErrorNodeScoping: RPCErrorNodes restricts injection to the named
// nodes.
func TestRPCErrorNodeScoping(t *testing.T) {
	in := NewInjector(Plan{Seed: 9, RPCErrorRate: 1, RPCErrorNodes: []string{"dn-2"}})
	_, view := newTestDFS(t, in)
	ok, err := view.DataNode(dfs.DataNodeInfo{ID: "dn-0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.WriteBlock(1, []byte("x"), nil); err != nil {
		t.Fatalf("unscoped node faulted: %v", err)
	}
	bad, err := view.DataNode(dfs.DataNodeInfo{ID: "dn-2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.WriteBlock(2, []byte("x"), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("scoped node = %v, want injected failure", err)
	}
}

// TestInjectedIsTransient: injected faults must look transient to the DFS
// retry classifier, or nothing would ever retry them.
func TestInjectedIsTransient(t *testing.T) {
	in := NewInjector(Plan{Seed: 1})
	err := in.inject("test-mode", "detail")
	if !dfs.IsTransient(err) {
		t.Fatalf("injected fault classified permanent: %v", err)
	}
}

// TestPlanValidateNamesFirstDeclaredField: with two fields out of range
// the error names the one declared first in Plan, on every run — the
// message is an artefact like any other and must not depend on map order.
func TestPlanValidateNamesFirstDeclaredField(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"two bad rates", Plan{HeartbeatDropRate: 2, BitFlipRate: -1}, "faults: BitFlipRate -1 is outside [0,1]"},
		{"two bad durations", Plan{NMPartitionFor: -1, NMCrashAt: -2}, "faults: NMCrashAt -2ns is negative"},
	}
	for _, tc := range cases {
		for i := 0; i < 100; i++ {
			err := tc.plan.Validate()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s, run %d: Validate() = %v, want %q", tc.name, i, err, tc.want)
			}
		}
	}
	if err := (Plan{RPCErrorRate: 0.5, NMCrashAt: 1}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}
