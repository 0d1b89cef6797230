// Package clusterd runs the YARN emulation as a long-lived network
// service: a daemon that admits a continuous stream of job submissions
// over a line-delimited JSON wire protocol, executes them on a
// yarn.Service (real TCP DFS underneath, preemption and checkpointing
// live), and survives sustained load with fault injection enabled.
//
// The package splits into the Daemon (bounded admission queue with
// explicit backpressure, which the yarn.Service loop reads itself; drain
// state machine), the wire Client (an internal/wire peer — per-request
// deadlines, one redial — under core.Retrier's capped jittered retry), and
// the LoadGen (seeded open-loop driver used by the chaos soak).
package clusterd

// Admission bounds. They are protocol constants, not knobs: a request
// outside them is a hard rejection whatever the daemon's configuration.
const (
	// MaxRequestBytes bounds one request on the wire. A request that
	// outgrows it is answered with an error and its connection dropped,
	// since the rest of the stream is the tail of that request.
	MaxRequestBytes = 64 << 10
	// MaxJobTasks bounds the tasks of one job, and with it what one
	// accepted request can make the daemon materialise. The paper's whole
	// Facebook workload is 7,000 tasks over 40 jobs.
	MaxJobTasks = 10_000
)

// Wire protocol: one JSON object per line in each direction over a plain
// TCP connection. A connection carries any number of request/response
// pairs in order; there is no framing beyond the newline and no
// pipelining. The bytes are exactly what json.Encoder.Encode writes; the
// canonical requests and responses the Client and the daemon exchange are
// encoded and parsed by hand (codec.go), and any other input is decoded by
// encoding/json, so any JSON client is answered as before. A reply is one
// line: the Client treats a line that is not one Response as a transport
// error. Ops:
//
//	ping    liveness probe; responds {"ok":true,"state":...}
//	submit  admit one job; the daemon assigns the job ID
//	stats   snapshot of the daemon's books (admission counters, queue
//	        depth, runtime gauges) — the loadgen's settle/soak checks
//	        ride on this instead of scraping HTTP
type Request struct {
	Op  string      `json:"op"`
	Job *JobRequest `json:"job,omitempty"`
}

// JobRequest is the client-side job shape. The daemon owns identity (it
// assigns monotonically increasing job IDs) so two clients can never
// collide; demand per task is the paper's fixed container size.
type JobRequest struct {
	Priority int `json:"priority"`
	Tasks    int `json:"tasks"`
	// DurationMS is each task's virtual service time in milliseconds.
	DurationMS int64 `json:"duration_ms"`
	// MemFootprintBytes is the checkpointable footprint per task;
	// defaults to 1 GiB when zero. Negative is a hard rejection.
	MemFootprintBytes int64  `json:"mem_footprint_bytes,omitempty"`
	User              string `json:"user,omitempty"`
}

// Daemon states, reported in every response so clients can distinguish
// backpressure (retry later) from drain (go away).
const (
	StateServing  = "serving"
	StateDraining = "draining"
	StateStopped  = "stopped"
)

// Response answers one request.
type Response struct {
	OK    bool   `json:"ok"`
	JobID int64  `json:"job_id,omitempty"`
	Error string `json:"error,omitempty"`
	// RetryAfterMS, when positive, is a backpressure hint: the queue was
	// full, try again after this pause. Zero on hard rejections
	// (validation errors, draining) — retrying those is pointless.
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	State        string `json:"state,omitempty"`
	Stats        *Stats `json:"stats,omitempty"`
}

// Stats is the daemon's bookkeeping snapshot. The lost/double-completed
// counters are the soak test's acceptance criteria: both must be zero at
// all times.
type Stats struct {
	State string `json:"state"`

	Submitted int64 `json:"submitted"`
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	// Lost counts admitted jobs that will never complete (only ever
	// non-zero after a failed drain); DoubleCompleted counts completion
	// callbacks for jobs not outstanding. Both are invariant violations.
	Lost            int64 `json:"lost"`
	DoubleCompleted int64 `json:"double_completed"`

	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`

	Goroutines int    `json:"goroutines"`
	HeapBytes  uint64 `json:"heap_bytes"`

	// AdmissionP99Sec is the p99 of the admission decision latency
	// histogram (clusterd.admission.seconds).
	AdmissionP99Sec float64 `json:"admission_p99_sec"`
	// VirtualNowNS is the engine's virtual clock, nanoseconds.
	VirtualNowNS int64 `json:"virtual_now_ns"`
}
