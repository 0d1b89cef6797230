package clusterd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
)

// LoadConfig parameterizes one open-loop run against a daemon.
type LoadConfig struct {
	Addr string
	// Rate is the mean offered load in submissions/sec; arrivals are
	// Poisson (exponential interarrivals) from the seeded source.
	Rate float64
	// Duration is the offered-load window; settling happens after.
	Duration time.Duration
	Seed     int64

	// TasksPerJob and TaskDuration shape each offered job; priority is
	// drawn uniformly over the paper's [0,11] range per job.
	TasksPerJob  int
	TaskDuration time.Duration

	// MaxOutstanding caps concurrent submit RPCs. The generator is
	// open-loop: an arrival finding no free slot is shed (counted, not
	// queued) rather than slowing the arrival process down.
	MaxOutstanding int
	RequestTimeout time.Duration
	// SettleTimeout bounds the post-load wait for the daemon to finish
	// every admitted job.
	SettleTimeout time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Rate <= 0 {
		c.Rate = 20
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.TasksPerJob <= 0 {
		c.TasksPerJob = 2
	}
	if c.TaskDuration <= 0 {
		c.TaskDuration = 30 * time.Second
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 30 * time.Second
	}
	return c
}

// LoadReport summarizes one run: the client-side view of the offered
// stream plus the daemon's final books, with the baseline/final runtime
// gauges the soak check compares.
type LoadReport struct {
	Offered         int64 `json:"offered"`
	Shed            int64 `json:"shed"`
	Accepted        int64 `json:"accepted"`
	Rejected        int64 `json:"rejected"`
	TransportErrors int64 `json:"transport_errors"`

	Settled bool          `json:"settled"`
	Elapsed time.Duration `json:"elapsed_ns"`

	BaselineGoroutines int    `json:"baseline_goroutines"`
	FinalGoroutines    int    `json:"final_goroutines"`
	BaselineHeapBytes  uint64 `json:"baseline_heap_bytes"`
	FinalHeapBytes     uint64 `json:"final_heap_bytes"`

	Final Stats `json:"final"`
}

// Check validates the soak invariants against the report: nothing lost or
// double-completed, everything accepted eventually completed, admission
// p99 within budget, and bounded goroutine/heap growth on the daemon.
// It returns the first violation.
func (r *LoadReport) Check(p99Budget time.Duration, maxGoroutineGrowth int, maxHeapGrowth uint64) error {
	if !r.Settled {
		return fmt.Errorf("%w: %d admitted, %d completed", ErrNotDrained, r.Final.Admitted, r.Final.Completed)
	}
	if r.Final.Lost != 0 {
		return fmt.Errorf("clusterd: %d jobs lost", r.Final.Lost)
	}
	if r.Final.DoubleCompleted != 0 {
		return fmt.Errorf("clusterd: %d jobs double-completed", r.Final.DoubleCompleted)
	}
	if r.Accepted != r.Final.Completed {
		return fmt.Errorf("clusterd: accepted %d != completed %d", r.Accepted, r.Final.Completed)
	}
	if p99 := time.Duration(r.Final.AdmissionP99Sec * float64(time.Second)); p99Budget > 0 && p99 > p99Budget {
		return fmt.Errorf("clusterd: admission p99 %v over budget %v", p99, p99Budget)
	}
	if g := r.FinalGoroutines - r.BaselineGoroutines; maxGoroutineGrowth > 0 && g > maxGoroutineGrowth {
		return fmt.Errorf("clusterd: goroutines grew by %d (%d -> %d)", g, r.BaselineGoroutines, r.FinalGoroutines)
	}
	if maxHeapGrowth > 0 && r.FinalHeapBytes > r.BaselineHeapBytes+maxHeapGrowth {
		return fmt.Errorf("clusterd: heap grew %d -> %d bytes", r.BaselineHeapBytes, r.FinalHeapBytes)
	}
	return nil
}

// RunLoad drives the daemon at addr with a seeded open-loop arrival
// stream for the configured window, waits for the backlog to drain, and
// returns the combined report. The offered job sequence is a
// deterministic function of the seed; real-time interleaving is not.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	cli := NewClient(cfg.Addr,
		WithRequestTimeout(cfg.RequestTimeout),
		WithClientSeed(cfg.Seed^0x5eed),
	)
	defer cli.Close()

	if _, err := cli.Ping(ctx); err != nil {
		return nil, fmt.Errorf("clusterd: daemon unreachable: %w", err)
	}
	baseline, err := cli.Stats(ctx)
	if err != nil {
		return nil, err
	}

	rep := &LoadReport{
		BaselineGoroutines: baseline.Goroutines,
		BaselineHeapBytes:  baseline.HeapBytes,
	}
	var accepted, rejected, transportErrs atomic.Int64

	rng := rand.New(rand.NewSource(cfg.Seed))
	slots := make(chan struct{}, cfg.MaxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for time.Since(start) < cfg.Duration && ctx.Err() == nil {
		// Exponential interarrival for the Poisson stream.
		gap := time.Duration(-math.Log(1-rng.Float64()) / cfg.Rate * float64(time.Second))
		if err := core.Sleep(ctx, gap); err != nil {
			break
		}
		jr := JobRequest{
			Priority:   rng.Intn(int(cluster.MaxPriority) + 1),
			Tasks:      cfg.TasksPerJob,
			DurationMS: cfg.TaskDuration.Milliseconds(),
			User:       fmt.Sprintf("loadgen-%d", cfg.Seed),
		}
		rep.Offered++
		select {
		case slots <- struct{}{}:
		default:
			rep.Shed++ // open loop: never queue behind slow submissions
			continue
		}
		wg.Add(1)
		go func(jr JobRequest) {
			defer wg.Done()
			defer func() { <-slots }()
			resp, err := cli.Submit(ctx, jr)
			switch {
			case err == nil && resp != nil && resp.OK:
				accepted.Add(1)
			case resp != nil:
				rejected.Add(1)
			default:
				transportErrs.Add(1)
			}
		}(jr)
	}
	wg.Wait()
	rep.Accepted = accepted.Load()
	rep.Rejected = rejected.Load()
	rep.TransportErrors = transportErrs.Load()

	// Settle: the daemon owes a completion for every admitted job.
	settleCtx, cancel := context.WithTimeout(ctx, cfg.SettleTimeout)
	defer cancel()
	var last *Stats
	for {
		st, err := cli.Stats(settleCtx)
		if err == nil {
			last = st
			if st.Completed+st.Lost+st.DoubleCompleted >= st.Admitted && st.QueueDepth == 0 && st.InFlight == 0 {
				rep.Settled = st.Completed == st.Admitted
				break
			}
		}
		if serr := core.Sleep(settleCtx, 50*time.Millisecond); serr != nil {
			break
		}
	}
	if last != nil {
		rep.Final = *last
		rep.FinalGoroutines = last.Goroutines
		rep.FinalHeapBytes = last.HeapBytes
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
