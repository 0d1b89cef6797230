package clusterd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/wire"
	"preemptsched/internal/yarn"
)

// maxDurationMS is the longest task duration whose conversion to a
// time.Duration does not wrap.
const maxDurationMS = math.MaxInt64 / int64(time.Millisecond)

// Config parameterizes a daemon.
type Config struct {
	// Addr is the wire-protocol listen address ("127.0.0.1:0" for tests).
	Addr string
	// OpsAddr, when non-empty, serves /metrics, /healthz, /readyz, and
	// pprof on a second listener via obs.ServeOps.
	OpsAddr string

	// QueueSize bounds the admission queue: submissions beyond it are
	// rejected with a retry-after hint, never buffered. Defaults to 64.
	QueueSize int
	// MaxInFlight bounds how many admitted jobs the engine runs at once;
	// the rest wait in the queue for completions. Defaults to 256.
	MaxInFlight int
	// RetryAfter is the backpressure hint returned with queue-full
	// rejections. Defaults to 100ms.
	RetryAfter time.Duration

	// Cluster shapes the underlying yarn.Service.
	Cluster yarn.Config
	// Metrics receives the daemon's and the cluster's telemetry; a
	// private registry is built when nil. The daemon's books are series of
	// this registry, so two daemons must not be handed the same one.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 100 * time.Millisecond
	}
	return c
}

// Daemon accepts job submissions on the wire protocol and runs them on a
// yarn.Service. Its lifecycle is the drain state machine documented in
// DESIGN.md §12: Serving → Draining (Shutdown called: no new admissions,
// queued and running jobs finish) → Stopped.
type Daemon struct {
	cfg Config
	reg *obs.Registry
	rec *obs.Recorder
	svc *yarn.Service

	ln      net.Listener
	opsAddr string
	opsStop func()
	// queue is the one buffer between the wire and the engine: admit sends
	// on it, the service's loop receives.
	queue chan cluster.JobSpec

	mu          sync.Mutex
	state       string
	outstanding map[cluster.JobID]struct{}

	// m is the daemon's books: the registry series /metrics exports are
	// the counters Stats reads, each fact counted once.
	m      daemonMetrics
	nextID atomic.Int64

	// served yields wire.Serve's verdict once the listener is closed and
	// every connection handler has returned.
	served    chan error
	samplerWG sync.WaitGroup

	samplerStop chan struct{}
	done        chan struct{}

	res      *yarn.Result
	closeErr error
}

// daemonMetrics holds the pre-resolved handles of the per-job series.
// Resolving a handle registers its series, so a scraper sees an explicit
// zero rather than an absent one from the start: "jobs.lost 0" is the
// soak's pass criterion and must be distinguishable from "never measured".
type daemonMetrics struct {
	submitted, admitted, rejected, shedFreeBand obs.Counter
	completed, doubleCompleted, lost            obs.Counter
	admission                                   obs.Histogram
	queueDepth                                  obs.Gauge
}

func resolveMetrics(reg *obs.Registry) daemonMetrics {
	return daemonMetrics{
		submitted:       reg.Counter("clusterd.jobs.submitted"),
		admitted:        reg.Counter("clusterd.jobs.admitted"),
		rejected:        reg.Counter("clusterd.jobs.rejected"),
		shedFreeBand:    reg.Counter("clusterd.jobs.shed.free.band"),
		completed:       reg.Counter("clusterd.jobs.completed"),
		doubleCompleted: reg.Counter("clusterd.jobs.double.completed"),
		lost:            reg.Counter("clusterd.jobs.lost"),
		admission:       reg.Histogram("clusterd.admission.seconds"),
		queueDepth:      reg.Gauge("clusterd.queue.depth"),
	}
}

// Start boots the cluster service, binds the wire listener (and the ops
// endpoint when configured), and begins admitting jobs.
func Start(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cfg.Cluster.Metrics = reg
	// The flight recorder is always on in service mode: a crash or SIGTERM
	// must leave behind an explainable journal. It is bounded (fixed segment
	// ring, O(1) per event) so always-on is safe. It is also the only
	// observer the daemon takes, since Recorder() must hand back the journal
	// every edge went to.
	rec, ok := cfg.Cluster.Observer.(*obs.Recorder)
	if !ok && cfg.Cluster.Observer != nil {
		return nil, fmt.Errorf("clusterd: Cluster.Observer is a %T; the daemon observes a run only through an *obs.Recorder", cfg.Cluster.Observer)
	}
	if rec == nil {
		rec = obs.NewRecorder(0, 0)
		cfg.Cluster.Observer = rec
	}
	d := &Daemon{
		cfg:         cfg,
		reg:         reg,
		rec:         rec,
		queue:       make(chan cluster.JobSpec, cfg.QueueSize),
		state:       StateServing,
		outstanding: make(map[cluster.JobID]struct{}),
		m:           resolveMetrics(reg),
		served:      make(chan error, 1),
		samplerStop: make(chan struct{}),
		done:        make(chan struct{}),
	}
	svc, err := yarn.NewService(cfg.Cluster, d.queue, cfg.MaxInFlight, d.complete)
	if err != nil {
		return nil, fmt.Errorf("clusterd: %w", err)
	}
	d.svc = svc
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("clusterd: listen %s: %w", cfg.Addr, err)
	}
	d.ln = ln
	if cfg.OpsAddr != "" {
		addr, stop, err := obs.ServeOps(cfg.OpsAddr, reg, "preemptsched", d.ready)
		if err != nil {
			ln.Close()
			svc.Close()
			return nil, err
		}
		d.opsAddr, d.opsStop = addr, stop
	}
	d.samplerWG.Add(1)
	go d.sample(d.samplerStop)
	go func() { d.served <- wire.Serve(ln, func(conn net.Conn) { d.serveConn(conn) }) }()
	return d, nil
}

// Addr returns the bound wire-protocol address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// OpsAddr returns the bound ops endpoint address, or "" when disabled.
func (d *Daemon) OpsAddr() string { return d.opsAddr }

// Recorder returns the daemon's always-on flight recorder, for flushing
// the provenance journal on shutdown or crash.
func (d *Daemon) Recorder() *obs.Recorder { return d.rec }

// ready reports whether the daemon is admitting jobs; /readyz flips to
// 503 the instant draining starts, before the wire listener goes away.
func (d *Daemon) ready() bool { return d.stateNow() == StateServing }

// serveConn serves one client's request/response stream until the peer
// goes away, the stream stops being well-formed requests, or Shutdown
// closes the connection. An oversized request is answered before the
// connection drops; anything else malformed just drops it.
//
// Requests in the canonical form a Client writes are parsed and answered by
// hand (codec.go). The first input that is not hands the connection, its
// unread bytes first, to serveDecoded for the rest of its life, so every
// byte stream is answered as the json.Decoder loop alone would answer it.
func (d *Daemon) serveConn(conn io.ReadWriter) {
	// Each request reads through a byte budget, refilled per request:
	// without one, a single endless line is unbounded memory.
	in := &io.LimitedReader{R: conn}
	br := bufio.NewReaderSize(in, connBufSize)
	var (
		req Request
		job JobRequest
		out []byte
	)
	for {
		in.N = MaxRequestBytes
		if !readRequest(br, &req, &job) {
			break
		}
		resp := d.handle(&req)
		var err error
		if out, err = appendResponse(out[:0], &resp); err == nil {
			_, err = conn.Write(out)
		}
		if err != nil {
			return
		}
	}
	unread, _ := br.Peek(br.Buffered())
	d.serveDecoded(conn, io.MultiReader(bytes.NewReader(unread), in), in)
}

// serveDecoded is the connection loop for everything the hand parser
// refuses: encoding/json decodes each request from r — the bytes serveConn
// had buffered, then in — and encodes each answer. Only reads from in spend
// the budget. The first request keeps what serveConn already charged it;
// each later one gets the budget afresh.
func (d *Daemon) serveDecoded(w io.Writer, r io.Reader, in *io.LimitedReader) {
	// The JSON decoder buffers a whole value before it decodes any of it,
	// which is what the budget bounds.
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	for first := true; ; first = false {
		if !first {
			in.N = MaxRequestBytes
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			if in.N <= 0 { // the budget ran out, not the peer
				_ = enc.Encode(&Response{
					Error: fmt.Sprintf("clusterd: request longer than %d bytes", MaxRequestBytes),
					State: d.stateNow(),
				})
			}
			return
		}
		resp := d.handle(&req)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

func (d *Daemon) handle(req *Request) Response {
	switch req.Op {
	case "ping":
		return Response{OK: true, State: d.stateNow()}
	case "submit":
		return d.admit(req.Job)
	case "stats":
		st := d.Stats()
		return Response{OK: true, State: st.State, Stats: &st}
	default:
		return Response{Error: fmt.Sprintf("clusterd: unknown op %q", req.Op), State: d.stateNow()}
	}
}

func (d *Daemon) stateNow() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// admit is the admission decision: O(1) in the daemon's load and
// non-blocking by construction — validate, then either reserve a queue slot
// or reject with a retry-after hint. It never waits on the engine, which is
// what keeps the p99 admission latency inside the DESIGN.md §12 budget. An
// ok answer means the job can run: what is queued has passed the engine's
// own validation.
func (d *Daemon) admit(jr *JobRequest) Response {
	start := time.Now()
	defer func() { d.m.admission.ObserveDuration(time.Since(start)) }()
	d.m.submitted.Inc()

	reject := func(resp Response) Response {
		d.m.rejected.Inc()
		return resp
	}
	if jr == nil {
		return reject(Response{Error: "clusterd: submit without job", State: d.stateNow()})
	}
	if err := jr.validate(); err != nil {
		return reject(Response{Error: err.Error(), State: d.stateNow()})
	}

	d.mu.Lock()
	if d.state != StateServing {
		state := d.state
		d.mu.Unlock()
		return reject(Response{Error: "clusterd: draining, not admitting", State: state})
	}
	// Priority-aware shedding: once the queue crosses the high-water
	// mark, free-band submissions are rejected while the reserved tail
	// still admits paid bands — a flood of best-effort work must not
	// starve paying bands into queue-full rejections.
	if cluster.BandOf(cluster.Priority(jr.Priority)) == cluster.BandFree &&
		len(d.queue) >= d.cfg.QueueSize-d.paidReserve() {
		d.mu.Unlock()
		d.m.shedFreeBand.Inc()
		return reject(Response{
			Error:        "clusterd: queue saturated, free-band submissions shed first",
			RetryAfterMS: d.cfg.RetryAfter.Milliseconds(),
			State:        StateServing,
		})
	}
	// The wire shape is checked above; whether the job it describes can run is
	// the engine's to say, on the spec the engine will be handed. Reserve says
	// it without waiting on the engine, and books the job's work against the
	// horizon: the service's loop takes what is queued as it is.
	id := cluster.JobID(d.nextID.Add(1))
	spec := jr.spec(id)
	if err := d.svc.Reserve(&spec); err != nil {
		d.mu.Unlock()
		return reject(Response{Error: "clusterd: " + err.Error(), State: StateServing})
	}
	select {
	case d.queue <- spec:
		d.outstanding[id] = struct{}{}
		depth := len(d.queue)
		d.mu.Unlock()
		d.m.admitted.Inc()
		d.m.queueDepth.Set(float64(depth))
		return Response{OK: true, JobID: int64(id), State: StateServing}
	default:
		d.mu.Unlock()
		d.svc.Release(id, 0)
		return reject(Response{
			Error:        "clusterd: admission queue full",
			RetryAfterMS: d.cfg.RetryAfter.Milliseconds(),
			State:        StateServing,
		})
	}
}

// paidReserve is the number of queue slots held back for paid-band work
// under pressure: a quarter of the queue, at least one slot, and never the
// whole queue — an empty queue sheds nothing.
func (d *Daemon) paidReserve() int {
	return min(max(d.cfg.QueueSize/4, 1), d.cfg.QueueSize-1)
}

// validate checks the wire shape: everything spec could not materialise
// faithfully, or only at a cost the request has not earned.
func (jr *JobRequest) validate() error {
	if jr.Tasks <= 0 || jr.Tasks > MaxJobTasks {
		return fmt.Errorf("clusterd: job needs between 1 and %d tasks, got %d", MaxJobTasks, jr.Tasks)
	}
	if jr.DurationMS <= 0 || jr.DurationMS > maxDurationMS {
		return fmt.Errorf("clusterd: job needs a duration in (0, %d]ms, got %dms", int64(maxDurationMS), jr.DurationMS)
	}
	if p := cluster.Priority(jr.Priority); p < cluster.MinPriority || p > cluster.MaxPriority {
		return fmt.Errorf("clusterd: priority %d outside [%d,%d]", jr.Priority, cluster.MinPriority, cluster.MaxPriority)
	}
	if jr.MemFootprintBytes < 0 {
		return fmt.Errorf("clusterd: job footprint %d bytes is negative", jr.MemFootprintBytes)
	}
	return nil
}

// spec materializes the wire job as a JobSpec under the daemon-assigned
// ID. Submit instants stay zero: the service stamps them with virtual
// now at admission.
func (jr *JobRequest) spec(id cluster.JobID) cluster.JobSpec {
	foot := jr.MemFootprintBytes
	if foot == 0 {
		foot = cluster.GiB(1)
	}
	j := cluster.JobSpec{ID: id, Priority: cluster.Priority(jr.Priority), User: jr.User,
		Tasks: make([]cluster.TaskSpec, 0, jr.Tasks)}
	for i := 0; i < jr.Tasks; i++ {
		j.Tasks = append(j.Tasks, cluster.TaskSpec{
			ID:           cluster.TaskID{Job: id, Index: int32(i)},
			Priority:     j.Priority,
			User:         j.User,
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: foot,
			Duration:     time.Duration(jr.DurationMS) * time.Millisecond,
		})
	}
	return j
}

// complete is the engine-side completion callback: exactly one per
// admitted job, anything else is a double completion. It runs on the
// service's loop goroutine, which is also what empties the queue.
func (d *Daemon) complete(done yarn.JobDone) {
	d.mu.Lock()
	_, ok := d.outstanding[done.ID]
	if ok {
		delete(d.outstanding, done.ID)
	}
	d.mu.Unlock()
	d.m.queueDepth.Set(float64(len(d.queue)))
	if !ok {
		d.m.doubleCompleted.Inc()
		return
	}
	d.m.completed.Inc()
}

// sample publishes runtime gauges (goroutines, heap) every interval so
// the soak harness can detect growth from /metrics alone.
func (d *Daemon) sample(stop <-chan struct{}) {
	defer d.samplerWG.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.reg.SetGauge("clusterd.goroutines", float64(runtime.NumGoroutine()))
			d.reg.SetGauge("clusterd.heap.bytes", float64(heapBytes()))
		}
	}
}

// heapBytes is the memory occupied by heap objects, live or not yet swept
// — what runtime.MemStats.HeapAlloc reports — read through runtime/metrics,
// which unlike runtime.ReadMemStats does not stop the world: clients poll
// Stats while the daemon is serving.
func heapBytes() uint64 {
	sample := [1]metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// Stats snapshots the daemon's books.
func (d *Daemon) Stats() Stats {
	return Stats{
		State:           d.stateNow(),
		Submitted:       d.m.submitted.Value(),
		Admitted:        d.m.admitted.Value(),
		Rejected:        d.m.rejected.Value(),
		Completed:       d.m.completed.Value(),
		Lost:            d.m.lost.Value(),
		DoubleCompleted: d.m.doubleCompleted.Value(),
		QueueDepth:      len(d.queue),
		InFlight:        d.svc.InFlight(),
		Goroutines:      runtime.NumGoroutine(),
		HeapBytes:       heapBytes(),
		AdmissionP99Sec: d.m.admission.Snapshot().Quantile(0.99),
		VirtualNowNS:    int64(d.svc.Now()),
	}
}

// Result returns the cluster's aggregated result; valid after Shutdown.
func (d *Daemon) Result() *yarn.Result { return d.res }

// Shutdown executes the graceful drain: flip to Draining (rejecting new
// submissions but still answering stats), close the queue so the service
// admits what it still holds, run the engine dry, then tear down
// listeners, conns, the ops server, and the sampler. If ctx expires
// mid-drain the cluster is aborted instead — DFS I/O is cancelled so
// running work degrades to kills and the drain converges quickly; no
// admitted job is lost either way. Idempotent: later calls wait for the
// first and return its error.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if d.state != StateServing {
		d.mu.Unlock()
		<-d.done
		return d.closeErr
	}
	d.state = StateDraining
	close(d.queue)
	d.mu.Unlock()
	events := obs.NewEmitter(d.rec, "clusterd")
	events.Emit(obs.Event{Kind: obs.EvMarker, At: d.svc.Now(), Name: "drain-begin"})

	// Everything queued reaches the engine, then the engine drains.
	drained := make(chan struct{})
	go func() {
		d.res, d.closeErr = d.svc.Close()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		d.svc.Abort()
		<-drained
	}
	events.Emit(obs.Event{Kind: obs.EvMarker, At: d.svc.Now(), Name: "drain-end"})

	// Lost-job audit: after a full drain nothing may be outstanding.
	d.mu.Lock()
	for id := range d.outstanding {
		delete(d.outstanding, id)
		d.m.lost.Inc()
	}
	d.mu.Unlock()
	if n := d.m.lost.Value(); n > 0 && d.closeErr == nil {
		d.closeErr = fmt.Errorf("clusterd: %d jobs lost in drain", n)
	}

	// Edge teardown: wire listener and its open conns, ops server, sampler.
	d.mu.Lock()
	d.state = StateStopped
	d.mu.Unlock()
	d.ln.Close()
	if err := <-d.served; err != nil && d.closeErr == nil {
		d.closeErr = fmt.Errorf("clusterd: wire listener: %w", err)
	}
	if d.opsStop != nil {
		d.opsStop()
	}
	close(d.samplerStop)
	d.samplerWG.Wait()
	close(d.done)
	return d.closeErr
}

// ErrNotDrained reports a soak invariant violation discoverable from
// Stats; exported so callers can errors.Is on loadgen failures.
var ErrNotDrained = errors.New("clusterd: jobs still outstanding")
