package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/proc"
)

// startTCPCluster boots a real namenode and n datanodes on localhost
// listeners and returns a TCP transport pointed at them, the NameNode
// (which reaches its DataNodes through that transport) and the DataNodes.
// Servers shut down with the test.
func startTCPCluster(t *testing.T, n, replication int) (*TCPTransport, *NameNode, []*DataNode) {
	t.Helper()
	nnListener, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nn := NewNameNode(replication)
	go Serve(nnListener, nn, nil)
	t.Cleanup(func() { nnListener.Close() })

	transport := NewTCPTransport(nnListener.Addr().String())
	t.Cleanup(transport.Close)
	nn.AttachTransport(transport)

	var datanodes []*DataNode
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		info := DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: l.Addr().String()}
		dn := NewDataNode(info, transport)
		go Serve(l, nil, dn)
		t.Cleanup(func() { l.Close() })
		api, err := transport.NameNode()
		if err != nil {
			t.Fatal(err)
		}
		if err := api.Register(info); err != nil {
			t.Fatal(err)
		}
		datanodes = append(datanodes, dn)
	}
	return transport, nn, datanodes
}

func TestTCPEndToEnd(t *testing.T) {
	transport, _, _ := startTCPCluster(t, 3, 2)
	client := NewClient(transport, WithBlockSize(512), WithLocalNode("dn-0"))

	data := randomData(3000)
	writeFile(t, client, "/tcp/file", data)
	if got := readFile(t, client, "/tcp/file"); !bytes.Equal(got, data) {
		t.Error("TCP round trip mismatch")
	}
	if n, err := client.Size("/tcp/file"); err != nil || n != 3000 {
		t.Errorf("Size = %d, %v", n, err)
	}
	names, err := client.List("/tcp/")
	if err != nil || len(names) != 1 {
		t.Errorf("List = %v, %v", names, err)
	}
	if err := client.Remove("/tcp/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/tcp/file"); err == nil {
		t.Error("removed file still readable over TCP")
	}
}

func TestTCPPipelineReplicates(t *testing.T) {
	transport, _, datanodes := startTCPCluster(t, 3, 3)
	client := NewClient(transport, WithBlockSize(256), WithLocalNode("dn-1"))
	writeFile(t, client, "/rep", randomData(700))
	// 3 blocks x 3 replicas: every datanode must hold all 3 blocks.
	for _, dn := range datanodes {
		if dn.BlockCount() != 3 {
			t.Errorf("%s holds %d blocks, want 3", dn.Info().ID, dn.BlockCount())
		}
	}
}

func TestTCPReadFallback(t *testing.T) {
	transport, _, datanodes := startTCPCluster(t, 3, 2)
	client := NewClient(transport, WithBlockSize(128), WithLocalNode("dn-0"))
	data := randomData(500)
	writeFile(t, client, "/fb", data)
	datanodes[0].SetDown(true)
	if got := readFile(t, client, "/fb"); !bytes.Equal(got, data) {
		t.Error("TCP fallback read mismatch")
	}
}

func TestTCPErrorsCrossTheWire(t *testing.T) {
	transport, _, _ := startTCPCluster(t, 1, 1)
	client := NewClient(transport)
	if _, err := client.Open("/absent"); err == nil {
		t.Error("missing file opened over TCP")
	}
	nn, _ := transport.NameNode()
	if _, err := nn.Stat("/absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("flattened error lost not-found identity: %v", err)
	}
}

// The paper's remote-resume scenario over a real network: a process is
// checkpointed from one node into the DFS and restored by a different
// node.
func TestTCPRemoteCheckpointRestore(t *testing.T) {
	transport, _, _ := startTCPCluster(t, 3, 2)
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	engine := checkpoint.NewEngine(reg)

	// Node A runs and checkpoints the task.
	nodeA := NewClient(transport, WithBlockSize(2048), WithLocalNode("dn-0"))
	p, err := proc.New("task", proc.FillProgram{}, 16*proc.PageSize, 16*proc.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	proc.ConfigureFill(p, 20, 2)
	for i := 0; i < 7; i++ {
		p.Step()
	}
	p.Suspend()
	if _, err := engine.Dump(p, nodeA, "/ckpt/task", checkpoint.DumpOpts{}); err != nil {
		t.Fatal(err)
	}

	// Node B restores it and finishes the run.
	nodeB := NewClient(transport, WithBlockSize(2048), WithLocalNode("dn-2"))
	restored, info, err := engine.Restore(nodeB, "/ckpt/task")
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != 7 {
		t.Errorf("restored at step %d, want 7", info.Steps)
	}
	for {
		done, err := restored.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if restored.Steps() != 20 {
		t.Errorf("finished at %d steps, want 20", restored.Steps())
	}
}

// A chain of four images over real TCP: every round trip dumps through one
// node's client and restores through the other's, alternating, so each
// restore walks a chain whose links were written from both sides. The task
// that was preempted four times must finish exactly as one that never was.
func TestTCPChainRestoreAlternatingClients(t *testing.T) {
	transport, _, _ := startTCPCluster(t, 3, 2)
	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	engine := checkpoint.NewEngine(reg)
	newTask := func() *proc.Process {
		p, err := proc.New("task", proc.FillProgram{}, 32*proc.PageSize, 32*proc.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		proc.ConfigureFill(p, 40, 3)
		return p
	}
	finish := func(p *proc.Process) uint64 {
		for {
			done, err := p.Step()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				sum, err := proc.FillChecksum(p)
				if err != nil {
					t.Fatal(err)
				}
				return sum
			}
		}
	}
	want := finish(newTask())

	// A block size that is no multiple of the page record keeps chunked
	// reads straddling block boundaries.
	clients := []*Client{
		NewClient(transport, WithBlockSize(3000), WithLocalNode("dn-0")),
		NewClient(transport, WithBlockSize(3000), WithLocalNode("dn-2")),
	}
	p := newTask()
	parent := ""
	for k := 0; k < 4; k++ {
		for i := 0; i < 5; i++ {
			if _, err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Suspend(); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("/ckpt/chain-%d", k)
		if _, err := engine.Dump(p, clients[k%2], name, checkpoint.DumpOpts{Incremental: k > 0, Parent: parent}); err != nil {
			t.Fatal(err)
		}
		p.Kill()
		var (
			info *checkpoint.ImageInfo
			err  error
		)
		if p, info, err = engine.Restore(clients[(k+1)%2], name); err != nil {
			t.Fatalf("restore of link %d: %v", k, err)
		}
		if info.Steps != uint64(5*(k+1)) {
			t.Errorf("link %d restored at step %d, want %d", k, info.Steps, 5*(k+1))
		}
		parent = name
	}
	if got := finish(p); got != want {
		t.Errorf("task resumed through a chain of 4 finished with %x, undisturbed %x", got, want)
	}
	if err := checkpoint.RemoveChain(clients[0], parent); err != nil {
		t.Fatal(err)
	}
	if left, err := clients[1].List("/ckpt/"); err != nil || len(left) != 0 {
		t.Errorf("RemoveChain left %v behind (%v)", left, err)
	}
}

// GIVEN a warm TCP transport WHEN a metadata RPC and a block read cross it
// THEN each allocates no more than it did through the package's own
// exchangeLocked, before the shared wire.Peer: 19 objects for a Stat, 8 for a
// ReadBlock (request and response encoding, server side included — the
// connection layer's own share is zero, internal/wire's
// TestWarmRoundTripAllocatesNothing). ckpt-dfs makes 122 such calls per op
// against a 5 % allocation bound, so one stray object per call would show.
func TestWarmRPCAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	transport, _, _ := startTCPCluster(t, 1, 1)
	client := NewClient(transport, WithBlockSize(512), WithLocalNode("dn-0"))
	writeFile(t, client, "/warm", randomData(300))
	nn, err := transport.NameNode()
	if err != nil {
		t.Fatal(err)
	}
	info, err := nn.Stat("/warm")
	if err != nil {
		t.Fatal(err)
	}
	dn, err := transport.DataNode(info.Blocks[0].Replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { nn.Stat("/warm") }); got > 19 {
		t.Errorf("a warm Stat allocates %v objects, 19 before the shared peer", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		block, err := dn.ReadBlock(info.Blocks[0].ID)
		if err != nil {
			t.Error(err)
		}
		putBlock(block)
	}); got > 8 {
		t.Errorf("a warm ReadBlock allocates %v objects, 8 before the shared peer", got)
	}
}
