package main

import (
	"fmt"
	"net"
	"sync"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/dfs"
	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

const (
	// ckptDataNodes DataNodes hold ckptReplication replicas of every block.
	ckptDataNodes   = 4
	ckptReplication = 3
	// ckptRoundTrips preemption round trips make one op: a full dump, then
	// incremental dumps chained on it.
	ckptRoundTrips = 4
	// ckptDirtyShare of the pages are written by each step (Table 3).
	ckptDirtyShare = 0.10
)

// ckptInst drives the paper's primitive on its production path: a
// proc.FillProgram process is suspended, dumped by checkpoint.Engine into
// a DFS reached over real TCP/gob, killed, restored from the image chain
// and checksummed — the suspend → dump → DFS write → restore → resume
// round trip of Fig. 2b. No scheduler runs.
type ckptInst struct {
	seed     int64
	memBytes int64
	perStep  uint64

	eng    *checkpoint.Engine
	local  *tracedStore // the dumping node's client
	remote *tracedStore // another node's client
	tt     *tracedTransport
	cli    []*dfs.Client

	stop []func()
	wg   sync.WaitGroup

	// per-op state, read by check and counts
	sums    [ckptRoundTrips][2]uint64 // checksum before the kill, after the restore
	stored  int64
	rpc     rpcCounts
	retries int64

	// busy-clock samples of the traced ops (ms)
	dumpSelf, restoreSelf, writeSelf, readSelf []float64
	dumpMiBps, restoreMiBps                    []float64
}

func ckptWorkload(name, why string) workload {
	// About 210 spans per op at full size: 4 dumps, 4 chain restores that
	// each open every link four times, and their RPCs.
	return workload{name: name, why: why, spans: 512, setup: func(e env) (instance, error) {
		c := &ckptInst{seed: e.seed, memBytes: 8 << 20}
		if e.smoke {
			c.memBytes = 512 << 10
		}
		c.perStep = uint64(ckptDirtyShare * float64(c.memBytes/proc.PageSize))
		if err := c.start(); err != nil {
			_ = c.close(nil)
			return nil, err
		}
		return c, nil
	}}
}

// listen binds a loopback port that close releases.
func (c *ckptInst) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.stop = append(c.stop, func() { ln.Close() })
	return ln, nil
}

// serve runs one DFS RPC loop until close closes its listener.
func (c *ckptInst) serve(ln net.Listener, nn dfs.NameNodeAPI, dn dfs.DataNodeAPI) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = dfs.Serve(ln, nn, dn) // nil once the listener is closed
	}()
}

func (c *ckptInst) start() error {
	nn := dfs.NewNameNode(ckptReplication)
	if _, err := nn.AttachJournal(storage.NewMemStore()); err != nil {
		return err
	}
	// Snapshot often enough that the edit log an op appends to stays short.
	nn.SetCheckpointEvery(512)
	nnLn, err := c.listen()
	if err != nil {
		return err
	}
	c.serve(nnLn, nn, nil)
	nnAddr := nnLn.Addr().String()

	// The DataNodes forward pipeline writes through their own transport;
	// only the clients' is decorated, so server-side hops are not counted
	// as client RPCs.
	srv := dfs.NewTCPTransport(nnAddr)
	c.stop = append(c.stop, srv.Close)
	nn.AttachTransport(srv)
	for i := 0; i < ckptDataNodes; i++ {
		ln, err := c.listen()
		if err != nil {
			return err
		}
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: ln.Addr().String()}
		c.serve(ln, nil, dfs.NewDataNode(info, srv))
		if err := nn.Register(info); err != nil {
			return err
		}
	}

	cliTr := dfs.NewTCPTransport(nnAddr)
	c.stop = append(c.stop, cliTr.Close)
	c.tt = &tracedTransport{inner: cliTr}
	for _, node := range []string{"dn-0", "dn-2"} {
		c.cli = append(c.cli, dfs.NewClient(c.tt, dfs.WithLocalNode(node)))
	}
	c.local = &tracedStore{inner: c.cli[0]}
	c.remote = &tracedStore{inner: c.cli[1]}

	reg := proc.NewRegistry()
	reg.Register(proc.FillProgramName, func() proc.Program { return proc.FillProgram{} })
	c.eng = checkpoint.NewEngine(reg)
	return nil
}

// newProcess builds the op's process: a memfill address space whose data
// pages are stamped with a seed-derived word, so every seed dumps
// different bytes of the same size.
func (c *ckptInst) newProcess() (*proc.Process, error) {
	p, err := proc.NewWithSetup("ckpt-dfs", proc.FillProgram{}, c.memBytes, c.memBytes, func(p *proc.Process) {
		proc.ConfigureFill(p, 1<<62, c.perStep)
	})
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(c.seed)
	mem := p.Memory()
	for page := 1; page < mem.NumPages(); page++ {
		if err := mem.WriteU64(int64(page)*proc.PageSize+8, rng.Uint64()); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (c *ckptInst) op(r *rec) (int, error) {
	c.local.r, c.remote.r, c.tt.r = r, r, r
	defer func() { c.local.r, c.remote.r, c.tt.r = nil, nil, nil }()
	c.tt.n = rpcCounts{}
	c.stored = 0
	retries0 := c.clientRetries()

	end := r.span("proc", "proc.new")
	p, err := c.newProcess()
	end()
	if err != nil {
		return 0, err
	}
	parent := ""
	for k := 0; k < ckptRoundTrips; k++ {
		end = r.span("proc", "proc.step")
		_, err := p.Step()
		end()
		if err != nil {
			return 0, err
		}
		if c.sums[k][0], err = proc.FillChecksum(p); err != nil {
			return 0, err
		}
		end = r.span("proc", "proc.suspend")
		err = p.Suspend()
		end()
		if err != nil {
			return 0, err
		}

		name := fmt.Sprintf("ckpt-dfs/img-%d", k)
		kind := "checkpoint.dump_full"
		if k > 0 {
			kind = "checkpoint.dump_incr"
		}
		b := c.busy()
		t0 := r.now()
		end = r.span("checkpoint", kind)
		info, err := c.eng.Dump(p, c.local, name, checkpoint.DumpOpts{Incremental: k > 0, Parent: parent})
		if err != nil {
			end()
			return 0, err
		}
		end(obs.Int64("stored_bytes", info.StoredBytes))
		if r != nil {
			d := ms(r.now() - t0)
			store, rpc := c.busy().since(b)
			c.dumpSelf = append(c.dumpSelf, d-store)
			c.writeSelf = append(c.writeSelf, store-rpc)
			c.dumpMiBps = append(c.dumpMiBps, float64(info.StoredBytes)/(1<<20)/(d/1e3))
		}
		c.stored += info.StoredBytes
		p.Kill()

		// Restores alternate between the dumping node's client and another
		// node's, as Algorithm 2 would place them.
		from, kind := c.local, "checkpoint.restore_local"
		if k%2 == 1 {
			from, kind = c.remote, "checkpoint.restore_remote"
		}
		b = c.busy()
		t0 = r.now()
		end = r.span("checkpoint", kind)
		p, info, err = c.eng.Restore(from, name)
		end()
		if err != nil {
			return 0, err
		}
		if r != nil {
			d := ms(r.now() - t0)
			store, rpc := c.busy().since(b)
			c.restoreSelf = append(c.restoreSelf, d-store)
			c.readSelf = append(c.readSelf, store-rpc)
			c.restoreMiBps = append(c.restoreMiBps, float64(info.TotalLogicalBytes)/(1<<20)/(d/1e3))
		}
		if c.sums[k][1], err = proc.FillChecksum(p); err != nil {
			return 0, err
		}
		parent = name
	}
	end = r.span("checkpoint", "checkpoint.remove_chain")
	err = checkpoint.RemoveChain(c.local, parent)
	end()
	if err != nil {
		return 0, err
	}
	c.rpc = c.tt.n
	c.retries = c.clientRetries() - retries0
	return ckptRoundTrips, nil
}

func (c *ckptInst) clientRetries() int64 {
	var n int64
	for _, cli := range c.cli {
		n += cli.Stats().Retries
	}
	return n
}

// busyClocks reads the decorators' busy clocks (ms).
type busyClocks struct{ store, rpc float64 }

func (c *ckptInst) busy() busyClocks {
	return busyClocks{store: ms(c.local.busy + c.remote.busy), rpc: ms(c.tt.busy)}
}

func (b busyClocks) since(then busyClocks) (store, rpc float64) {
	return b.store - then.store, b.rpc - then.rpc
}

func (c *ckptInst) check() error {
	for k, s := range c.sums {
		if s[0] != s[1] {
			return fmt.Errorf("round trip %d: checksum %#x before the kill, %#x after the restore", k, s[0], s[1])
		}
		if k > 0 && s[0] == c.sums[k-1][0] {
			return fmt.Errorf("round trip %d: the step did not advance the checksum", k)
		}
	}
	left, err := c.local.inner.List("ckpt-dfs/")
	if err != nil {
		return err
	}
	if len(left) != 0 {
		return fmt.Errorf("RemoveChain left %v behind", left)
	}
	return nil
}

func (c *ckptInst) counts() map[string]float64 {
	return map[string]float64{
		"checkpoint.stored_bytes_per_op": float64(c.stored),
		"dfs.rpc.namenode_calls_per_op":  float64(c.rpc.nn),
		"dfs.rpc.datanode_calls_per_op":  float64(c.rpc.dn),
		"dfs.rpc.payload_bytes_per_op":   float64(c.rpc.bytes),
		"dfs.client_retries_per_op":      float64(c.retries),
	}
}

func (c *ckptInst) layers(m map[string]float64, st spanStats) {
	for metric, span := range map[string]string{
		"proc.step_ms_p50":                 "proc.step",
		"checkpoint.dump_full_ms_p50":      "checkpoint.dump_full",
		"checkpoint.dump_incr_ms_p50":      "checkpoint.dump_incr",
		"checkpoint.restore_local_ms_p50":  "checkpoint.restore_local",
		"checkpoint.restore_remote_ms_p50": "checkpoint.restore_remote",
		"checkpoint.remove_chain_ms_p50":   "checkpoint.remove_chain",
		"dfs.rpc.namenode_ms_p50":          "rpc.nn",
		"dfs.rpc.write_block_ms_p50":       "rpc.dn.WriteBlock",
		"dfs.rpc.read_block_ms_p50":        "rpc.dn.ReadBlock",
	} {
		m[metric] = median(st.dur[span])
	}
	m["checkpoint.dump_self_ms_p50"] = median(c.dumpSelf)
	m["checkpoint.restore_self_ms_p50"] = median(c.restoreSelf)
	m["dfs.client_write_self_ms_p50"] = median(c.writeSelf)
	m["dfs.client_read_self_ms_p50"] = median(c.readSelf)
	m["checkpoint.dump_mibps"] = median(c.dumpMiBps)
	m["checkpoint.restore_mibps"] = median(c.restoreMiBps)
}

// close stops the listeners and transports and waits for every serve
// goroutine, so repeated set-ups leak neither goroutines nor ports.
func (c *ckptInst) close(*rec) error {
	for i := len(c.stop) - 1; i >= 0; i-- {
		c.stop[i]()
	}
	c.stop = nil
	c.wg.Wait()
	return nil
}
