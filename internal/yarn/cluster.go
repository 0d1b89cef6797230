package yarn

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"preemptsched/internal/checkpoint"
	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/dfs"
	"preemptsched/internal/faults"
	"preemptsched/internal/kmeans"
	"preemptsched/internal/mapreduce"
	"preemptsched/internal/obs"
	"preemptsched/internal/proc"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

// Cluster assembles the framework: the event engine, the RM, the NMs with
// their devices, the in-process DFS the checkpoints live in, and the
// checkpoint engine.
type Cluster struct {
	cfg    Config
	engine *sim.Engine
	rm     *ResourceManager
	nodes  []*NodeManager
	// dataNodes are the DFS's storage nodes, one per cluster node, whichever
	// way they are reached.
	dataNodes []*dfs.DataNode
	// dfsView is the transport every client and DataNode actually uses:
	// the in-process or TCP transport, or the fault injector's wrapper of
	// it when Config.Faults is set.
	dfsView  dfs.Transport
	injector *faults.Injector
	ckpt     *checkpoint.Engine

	// tracer records lifecycle spans in virtual time; nil disables
	// tracing. reg is never nil inside Run: a private registry is built
	// when the caller does not supply one, so Result.Metrics is always
	// populated. events reports each lifecycle edge to Config.Observer (a
	// no-op without one); slo is reg's SLO view, fed as events happen.
	tracer *obs.Tracer
	reg    *obs.Registry
	events obs.Emitter
	slo    obs.SLO
	// hm holds pre-resolved handles for the per-event metric paths (see
	// resolveHandles in obs.go); reg stays the sink for everything cold.
	hm yarnHandles

	res     *Result
	taskSeq uint64
	dumps   int

	// Node-liveness machinery (engine goroutine only). tasksSubmitted
	// counts every task handed to the RM, so livenessShouldRun can tell
	// when the workload has drained and the heartbeat loop must wind down —
	// otherwise the perpetual timers would keep engine.Run from ever
	// returning. livenessTimers counts outstanding heartbeat/sweep events;
	// nmCrashTimer is the pending seeded NM-crash event, cancelled at
	// wind-down so a far-future crash time cannot inflate the makespan of
	// a run whose work finished early.
	tasksSubmitted int
	livenessOn     bool
	livenessTimers int
	nmCrashTimer   *sim.Timer

	// decomRecovered/decomLost accumulate DataNode-decommission
	// re-replication outcomes. The OnCrash callback runs on whichever
	// goroutine tripped the crashed DataNode — under the TCP substrate
	// that is a client RPC goroutine racing the engine — so the counts
	// are folded into Result only at finish, under the books-closed
	// barrier.
	decomRecovered atomic.Int64
	decomLost      atomic.Int64

	// onJobDone hears of every job's completion (service mode); it fires
	// on the engine goroutine the moment the job's last task completes, so
	// it must not block.
	onJobDone func(JobDone)
	// cleanups tear down real resources (TCP listeners, transports) in
	// reverse order; serveWG tracks the dfs.Serve goroutines they stop.
	cleanups []func()
	serveWG  sync.WaitGroup
}

// buildDFS assembles the DFS the checkpoints live in: one NameNode and one
// DataNode per cluster node. The one thing tcp decides is how a node is
// reached — as an entry of the in-process transport (batch runs), or behind
// a loopback listener of its own that dfs.Serve answers on, through a pooled
// TCP transport (service mode); listener and transport closes are
// registered as cleanups, and close() waits for the serve goroutines via
// serveWG. With fault injection configured, every client and every DataNode
// reaches the cluster through the injector's transport wrapper, so pipeline
// forwarding between DataNodes suffers the same faults client RPCs do; a
// crashed DataNode is decommissioned at the NameNode and its blocks
// re-replicated from surviving copies.
func (c *Cluster) buildDFS(repl int, tcp bool) error {
	nn := dfs.NewNameNode(repl)
	nn.Instrument(c.reg)

	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			c.cleanups = append(c.cleanups, func() { ln.Close() })
		}
		return ln, err
	}
	serve := func(ln net.Listener, nn dfs.NameNodeAPI, dn dfs.DataNodeAPI) {
		c.serveWG.Add(1)
		go func() {
			defer c.serveWG.Done()
			_ = dfs.Serve(ln, nn, dn)
		}()
	}

	inproc := dfs.NewInProcTransport()
	c.dfsView = inproc
	if tcp {
		ln, err := listen()
		if err != nil {
			return err
		}
		serve(ln, nn, nil)
		tr := dfs.NewTCPTransport(ln.Addr().String())
		c.cleanups = append(c.cleanups, tr.Close)
		c.dfsView = tr
	} else {
		inproc.SetNameNode(nn)
	}
	if c.cfg.Faults != nil {
		plan := *c.cfg.Faults
		userOnCrash := plan.OnCrash
		plan.OnCrash = func(id string) {
			if userOnCrash != nil {
				userOnCrash(id)
			}
			// The liveness sweep would notice the silent node at its next
			// heartbeat sweep; the emulation collapses that delay into an
			// immediate decommission. The callback fires on whichever
			// goroutine tripped the crashed DataNode — over TCP an RPC
			// goroutine racing the engine — so the counts go to atomics and
			// are folded into Result at finish.
			rep := nn.Decommission(id)
			c.decomRecovered.Add(int64(rep.Recovered))
			c.decomLost.Add(int64(rep.Lost))
		}
		c.injector = faults.NewInjector(plan)
		c.injector.Instrument(c.reg)
		c.dfsView = faults.WrapTransport(c.dfsView, c.injector)
	}
	// Self-healing (re-replication after a bad-replica report or a
	// decommission) runs over the same faulted view every other component
	// uses, so healing copies are subject to the same injected chaos as the
	// traffic that found the corruption or the crash.
	nn.AttachTransport(c.dfsView)

	for i := 0; i < c.cfg.Nodes; i++ {
		info := dfs.DataNodeInfo{ID: fmt.Sprintf("dn-%d", i), Addr: fmt.Sprintf("dn-%d", i)}
		var ln net.Listener
		if tcp {
			var err error
			if ln, err = listen(); err != nil {
				return err
			}
			info.Addr = ln.Addr().String()
		}
		dn := dfs.NewDataNode(info, c.dfsView)
		dn.Instrument(c.reg)
		if tcp {
			serve(ln, nil, dn)
		} else {
			inproc.AddDataNode(info, dn)
		}
		if err := nn.Register(info); err != nil {
			return err
		}
		c.dataNodes = append(c.dataNodes, dn)
	}
	return nil
}

// afterDump runs the per-dump hooks: the corruption-injection knob and
// the dump-counted scrub cadence.
func (c *Cluster) afterDump(cli *dfs.Client, name string) {
	c.dumps++
	c.maybeCorrupt(cli, name)
	if c.cfg.ScrubEveryNDumps > 0 && c.dumps%c.cfg.ScrubEveryNDumps == 0 {
		c.scrubAll()
	}
}

// maybeCorrupt implements the failure-injection knob: flips one byte of
// the freshly written image when this is the configured Nth dump.
func (c *Cluster) maybeCorrupt(cli *dfs.Client, name string) {
	if c.cfg.corruptNthDump == 0 || c.dumps != c.cfg.corruptNthDump {
		return
	}
	r, err := cli.Open(name)
	if err != nil {
		return
	}
	data, err := io.ReadAll(r)
	r.Close()
	if err != nil || len(data) == 0 {
		return
	}
	data[len(data)/2] ^= 0xFF
	w, err := cli.Create(name)
	if err != nil {
		return
	}
	if _, err := w.Write(data); err != nil {
		w.Close()
		return
	}
	_ = w.Close()
}

// scrubAll runs one integrity scrub pass over every DataNode: corrupt
// replicas are evicted, reported to the NameNode, and re-replicated from
// verified copies, so the cluster converges back to zero corrupt
// replicas. Sweep totals land in the Result.
func (c *Cluster) scrubAll() {
	nn, err := c.dfsView.NameNode()
	if err != nil {
		return
	}
	for _, dn := range c.dataNodes {
		res := dn.ScrubOnce(nn)
		c.res.ScrubRuns++
		c.res.ScrubBlocksChecked += int64(res.Checked)
		c.res.ScrubCorruptFound += int64(res.Corrupt)
	}
}

// newCluster assembles a framework instance — engine, DFS substrate,
// checkpoint engine, NodeManagers, RM — ready to accept jobs. tcpDFS
// selects the real-TCP DFS (service mode) over the in-process transport.
func newCluster(cfg Config, tcpDFS bool) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	c := &Cluster{cfg: cfg, engine: sim.NewEngine(), tracer: cfg.Tracer, reg: cfg.Metrics,
		events: obs.NewEmitter(cfg.Observer, "yarn")}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.slo = c.reg.SLO()
	c.resolveHandles()

	repl := cfg.Replication
	if repl > cfg.Nodes {
		repl = cfg.Nodes
	}
	if err := c.buildDFS(repl, tcpDFS); err != nil {
		c.close()
		return nil, fmt.Errorf("yarn: build dfs: %w", err)
	}

	registry := proc.NewRegistry()
	kmeans.RegisterWith(registry)
	mapreduce.RegisterWith(registry)
	c.ckpt = checkpoint.NewEngine(registry)
	c.ckpt.Instrument(c.reg)

	k := int64(cfg.ContainersPerNode)
	capacity := cluster.Resources{CPUMillis: container.CPUMillis * k, MemBytes: container.MemBytes * k}
	for i := 0; i < cfg.Nodes; i++ {
		books, err := cfg.NewLedger(capacity)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("yarn: %w", err)
		}
		opts := []dfs.ClientOption{dfs.WithLocalNode(fmt.Sprintf("dn-%d", i)), dfs.WithObserver(c.reg)}
		if cfg.clientCtx != nil {
			opts = append(opts, dfs.WithContext(cfg.clientCtx))
		}
		cli := dfs.NewClient(c.dfsView, opts...)
		var store storage.Store = cli
		if c.injector != nil {
			store = faults.WrapStore(cli, c.injector)
		}
		//lint:ignore metricname per-node gauge: the node id is part of the series identity
		queuePeak := c.reg.Gauge(fmt.Sprintf("yarn.node.%d.ckpt.queue.peak.seconds", i))
		c.nodes = append(c.nodes, &NodeManager{Ledger: books, id: i, dfsCli: cli, store: store, queuePeak: queuePeak})
	}
	c.res = &Result{
		Outcome:       core.NewOutcome(cfg.Policy, c.nodes[0].Device.Label(), cfg.Nodes),
		TaskChecksums: make(map[cluster.TaskID]uint64),
	}
	c.rm = newResourceManager(c)
	return c, nil
}

// finish closes the books at virtual time end: the final scrub drain, the
// makespan, per-node energy/IO/DFS totals, injector counts, and the
// metrics snapshot.
func (c *Cluster) finish(end sim.Time) {
	// Drain residual bit rot before the books close: one healing pass
	// catches replicas flipped after the last cadence scrub, then a second
	// pass counts what is still corrupt. FinalScrubCorrupt == 0 is the
	// one-snapshot proof that the cluster converged to zero corrupt
	// replicas.
	if c.cfg.ScrubEveryNDumps > 0 {
		c.scrubAll()
		before := c.res.ScrubCorruptFound
		c.scrubAll()
		c.res.FinalScrubCorrupt = c.res.ScrubCorruptFound - before
	}
	c.res.Makespan = time.Duration(end)
	for _, n := range c.nodes {
		c.res.CloseNode(&n.Ledger, end)
	}
	// Every node's client counts into the one registry, so any one of them
	// reports the cluster's totals.
	st := c.nodes[0].dfsCli.Stats()
	c.res.DFSRetries, c.res.ReadFailovers = st.Retries, st.ReadFailovers
	c.res.PipelineRebuilds, c.res.CorruptReads = st.PipelineRebuilds, st.CorruptReads
	c.res.BlocksReReplicated += int(c.decomRecovered.Swap(0))
	c.res.BlocksLost += int(c.decomLost.Swap(0))
	if c.injector != nil {
		c.res.FaultsInjected = c.injector.Injected()
	}
	c.finishMetrics()
}

// close releases the cluster's real resources (TCP listeners, pooled
// connections) in reverse acquisition order and waits for the serve
// goroutines they stop. A no-op for the in-process substrate.
func (c *Cluster) close() {
	for i := len(c.cleanups) - 1; i >= 0; i-- {
		c.cleanups[i]()
	}
	c.cleanups = nil
	c.serveWG.Wait()
}

// Run executes jobs on a freshly assembled framework under cfg and returns
// the aggregated result.
func Run(cfg Config, jobs []cluster.JobSpec) (*Result, error) {
	c, err := newCluster(cfg, false)
	if err != nil {
		return nil, err
	}
	totalTasks := 0
	for i := range jobs {
		spec := &jobs[i]
		if err := spec.Validate(); err != nil {
			return nil, fmt.Errorf("yarn: %w", err)
		}
		totalTasks += len(spec.Tasks)
		am := newAppMaster(c, spec)
		c.engine.At(spec.Submit, sim.Handler(func(now sim.Time) {
			am.submit(now)
		}))
	}

	end := c.engine.Run()
	c.finish(end)
	if c.res.TasksCompleted != totalTasks {
		// Return the partial result alongside the error so callers can
		// surface the telemetry of an aborted run.
		return c.res, fmt.Errorf("yarn: run ended with %d of %d tasks complete", c.res.TasksCompleted, totalTasks)
	}
	return c.res, nil
}

func (c *Cluster) nextTaskSeq() uint64 {
	c.taskSeq++
	return c.taskSeq
}

// programSteps is the exact Step count of the configured per-task
// program, which maps virtual progress to real execution.
func (c *Cluster) programSteps() uint64 {
	switch c.cfg.Program {
	case "wordcount":
		return mapreduce.TotalSteps(c.cfg.WordCountInput, c.cfg.WordCountChunk)
	default:
		return uint64(c.cfg.KMeansIters)
	}
}

// chargeOverhead books a checkpoint/restore window against t's cores, in
// the Result and — like every charge — for the same amount in the SLO
// series, so the two can never drift.
func (c *Cluster) chargeOverhead(t *taskRun, window time.Duration) {
	c.slo.AddWaste(c.res.ChargeOverhead(t.spec, window))
}

// chargeWaste books compute t lost to a kill or an image fallback.
func (c *Cluster) chargeWaste(t *taskRun, lost time.Duration) {
	c.slo.AddWaste(c.res.ChargeWaste(t.spec, lost))
}

// sampleDFSUsage records the real bytes resident in the DFS.
func (c *Cluster) sampleDFSUsage() {
	var total int64
	for _, dn := range c.dataNodes {
		total += dn.StoredBytes()
	}
	if total > c.res.DFSStoredBytes {
		c.res.DFSStoredBytes = total
	}
}
