package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"preemptsched/internal/clusterd"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
	"preemptsched/internal/yarn"
)

const (
	// svcConns connections push each round, back to back.
	svcConns = 2
	// svcPoll is the Stats polling period while a round drains. Stats
	// stops the world (ReadMemStats) and snapshots the registry, so polling
	// faster would measure the poll.
	svcPoll = 2 * time.Millisecond
	// svcSpanEvery thins the per-submit spans: every RTT is sampled, every
	// svcSpanEvery-th submit is drawn in the trace.
	svcSpanEvery = 8
	// svcOpTimeout fails an op whose round never drains.
	svcOpTimeout = 60 * time.Second
)

// svcInst streams rounds of jobs into an in-process clusterd daemon over
// its wire protocol and waits for each round to drain: wire, admission,
// dispatcher, the yarn.Service loop, the per-task AM lifecycle and the
// always-on recorder and SLO tracker. An op is one round and its unit a
// completed job. The cluster is deliberately uncontended — the virtual
// clock outruns arrivals — because contention in service mode depends on
// real-time interleaving and would not repeat.
type svcInst struct {
	seed  int64
	round int // jobs per round, over all connections
	d     *clusterd.Daemon
	cli   [svcConns]*clusterd.Client

	submitted int64 // over the instance's life
	rejected0 int64 // daemon's rejected count before the last op
	last      *clusterd.Stats

	// samples of the traced ops
	submitUS, statsUS []float64
	records           []float64
}

func svcWorkload(name, why string) workload {
	// About 620 spans per op at full size: 500 drawn submits and one per
	// Stats poll of a 0.4 s drain.
	return workload{name: name, why: why, spans: 1024, setup: func(e env) (instance, error) {
		s := &svcInst{seed: e.seed, round: 4000}
		if e.smoke {
			s.round = 200
		}
		cfg := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
		cfg.Nodes, cfg.ContainersPerNode = 4, 8
		// A minimal k-means keeps the application out of the way: the
		// system around each task is what this workload measures.
		cfg.KMeansPoints, cfg.KMeansDims, cfg.KMeansK, cfg.KMeansIters = 8, 2, 2, 2
		end := e.r.span("clusterd", "clusterd.start")
		d, err := clusterd.Start(clusterd.Config{
			Addr: "127.0.0.1:0",
			// Twice a round: backpressure and free-band shedding (armed at
			// three quarters of the queue) never fire.
			QueueSize: 2 * s.round,
			Cluster:   cfg,
		})
		end()
		if err != nil {
			return nil, err
		}
		s.d = d
		for c := range s.cli {
			s.cli[c] = clusterd.NewClient(d.Addr(), clusterd.WithClientSeed(e.seed+int64(c)))
		}
		return s, nil
	}}
}

// job is the i-th job connection c offers in a round. The seed rotates
// the priority and size sequences; a round's totals do not depend on it.
func (s *svcInst) job(i, c int) clusterd.JobRequest {
	rot := int(((s.seed % 12) + 12) % 12)
	return clusterd.JobRequest{
		Priority:          (7*i + 3*c + rot) % 12,
		Tasks:             1 + (i+rot)%4,
		DurationMS:        30_000,
		MemFootprintBytes: 1 << 30,
		User:              fmt.Sprintf("tenant-%d", c),
	}
}

func (s *svcInst) op(r *rec) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), svcOpTimeout)
	defer cancel()
	seq0 := s.d.Recorder().Seq()
	s.rejected0 = 0
	if s.last != nil {
		s.rejected0 = s.last.Rejected
	}

	// Submit phase. Connection 0 is the op's own goroutine and its spans
	// nest under the op; every further connection gets a root span of its
	// own, so no tree has overlapping siblings.
	endPhase := r.span("clusterd", "clusterd.submit_phase")
	per := s.round / svcConns
	var (
		wg   sync.WaitGroup
		errs [svcConns]error
		rtts [svcConns][]float64
	)
	push := func(c int) {
		tid := fmt.Sprintf("conn-%d", c)
		parent := r.top()
		if c > 0 && r != nil {
			parent = r.tr.Start("clusterd", "clusterd.conn", r.pid, tid, 0, r.now())
			defer func() { r.tr.End(parent, r.now()) }()
		}
		for i := 0; i < per; i++ {
			start := r.now()
			resp, err := s.cli[c].Submit(ctx, s.job(i, c))
			if r != nil {
				end := r.now()
				rtts[c] = append(rtts[c], float64(end-start)/float64(time.Microsecond))
				if i%svcSpanEvery == 0 {
					r.child(parent, "clusterd", "clusterd.submit", tid, start, end)
				}
			}
			if err != nil {
				errs[c] = fmt.Errorf("connection %d, job %d: %w", c, i, err)
				return
			}
			if !resp.OK {
				errs[c] = fmt.Errorf("connection %d, job %d: not admitted: %s", c, i, resp.Error)
				return
			}
		}
	}
	for c := 1; c < svcConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			push(c)
		}(c)
	}
	push(0)
	wg.Wait()
	endPhase()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	s.submitted += int64(per * svcConns)

	// Drain phase: poll until everything admitted so far has completed.
	endPhase = r.span("clusterd", "clusterd.drain_phase")
	defer endPhase()
	for {
		start := r.now()
		end := r.span("clusterd", "clusterd.stats")
		st, err := s.cli[0].Stats(ctx)
		end()
		if err != nil {
			return 0, err
		}
		if r != nil {
			s.statsUS = append(s.statsUS, float64(r.now()-start)/float64(time.Microsecond))
		}
		if st.Admitted >= s.submitted && st.Completed >= st.Admitted && st.QueueDepth == 0 {
			s.last = st
			break
		}
		if err := core.Sleep(ctx, svcPoll); err != nil {
			return 0, fmt.Errorf("round did not drain: %d of %d completed: %w", st.Completed, s.submitted, err)
		}
	}
	if r != nil {
		for _, c := range rtts {
			s.submitUS = append(s.submitUS, c...)
		}
		s.records = append(s.records, float64(s.d.Recorder().Seq()-seq0))
	}
	return per * svcConns, nil
}

func (s *svcInst) check() error {
	st := s.last
	if st.Lost != 0 || st.DoubleCompleted != 0 {
		return fmt.Errorf("%d jobs lost, %d double-completed", st.Lost, st.DoubleCompleted)
	}
	if st.Admitted != s.submitted || st.Completed != s.submitted {
		return fmt.Errorf("submitted %d, admitted %d, completed %d", s.submitted, st.Admitted, st.Completed)
	}
	return nil
}

func (s *svcInst) counts() map[string]float64 {
	return map[string]float64{"clusterd.rejected_per_op": float64(s.last.Rejected - s.rejected0)}
}

func (s *svcInst) layers(m map[string]float64, st spanStats) {
	m["clusterd.start_ms"] = median(st.dur["clusterd.start"])
	m["clusterd.shutdown_ms"] = median(st.dur["clusterd.shutdown"])
	m["clusterd.submit_rtt_us_p50"] = median(s.submitUS)
	m["clusterd.submit_rtt_us_p99"] = quantile(s.submitUS, 0.99)
	m["clusterd.admission_us_p99"] = s.last.AdmissionP99Sec * 1e6
	m["clusterd.submit_phase_ms_p50"] = median(st.dur["clusterd.submit_phase"])
	m["clusterd.drain_phase_ms_p50"] = median(st.dur["clusterd.drain_phase"])
	m["clusterd.stats_rtt_us_p50"] = median(s.statsUS)
	m["obs.recorder_records_per_op"] = median(s.records)
}

// close drains and stops the daemon, which releases its listeners, DFS
// servers and goroutines, and drops the client connections.
func (s *svcInst) close(r *rec) error {
	ctx, cancel := context.WithTimeout(context.Background(), svcOpTimeout)
	defer cancel()
	end := r.span("clusterd", "clusterd.shutdown")
	err := s.d.Shutdown(ctx)
	end()
	for _, c := range s.cli {
		c.Close()
	}
	return err
}
