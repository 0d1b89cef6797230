package yarn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// ErrServiceClosed is returned by Submit once the service has begun
// draining: the job was not admitted and will never run.
var ErrServiceClosed = errors.New("yarn: service closed")

// Horizon bounds where admission lets the virtual clock be driven: a job is
// admitted only while the clock, plus the serial work (summed task durations)
// of everything admitted and unfinished, plus its own stays inside it. It is
// a quarter of the int64 clock (73 years): the clock also advances for what
// admission cannot price — checkpoint windows, work re-run after a kill.
const Horizon = sim.Time(math.MaxInt64 / 4)

// ErrHorizon is wrapped by Reserve and Submit for a job that does not fit
// inside the Horizon: it was not admitted and will never run.
var ErrHorizon = errors.New("yarn: job would carry the virtual clock past the horizon")

// JobDone reports one job's completion to its submission callback.
type JobDone struct {
	ID cluster.JobID
	// At is the completion instant on the virtual clock.
	At sim.Time
	// ResponseSec is virtual response time (completion minus submission)
	// in seconds — the paper's job response metric.
	ResponseSec float64
	Tasks       int
}

// submission carries one job across the API/engine boundary. errCh is
// buffered so the loop's reply never blocks.
type submission struct {
	spec   cluster.JobSpec
	onDone func(JobDone)
	errCh  chan error
}

// serviceStepBatch bounds how many events the loop fires between polls of
// the submission channel: large enough to amortize the select, small
// enough that a new arrival lands on the virtual clock promptly.
const serviceStepBatch = 256

// Service runs the framework as a long-lived online system: jobs stream
// in through Submit while the engine executes, instead of being fixed up
// front as in Run. One loop goroutine owns the virtual clock — it
// alternates between draining the submission channel and stepping the
// engine in bounded batches, so arrivals interleave with execution. The
// DFS underneath is the real TCP transport: checkpoint dumps and restores
// are genuine RPCs against per-node listeners, subject to Config.Faults.
//
// Virtual time runs ahead of real time (the engine never sleeps), so a
// job's virtual response says what the paper's policies would deliver,
// while the real DFS I/O on the dump/restore paths provides the
// concurrency and failure surface a daemon must survive.
type Service struct {
	c      *Cluster
	cancel context.CancelFunc

	subCh  chan submission
	stopCh chan struct{}
	doneCh chan struct{}

	mu      sync.Mutex
	stopped bool
	// seen holds every job ID ever admitted: IDs are unique for the
	// service's lifetime, so a resubmitted ID is rejected even after the
	// original completed — the lost/double-completion bookkeeping upstream
	// depends on that uniqueness.
	seen map[cluster.JobID]struct{}

	// The horizon ledger: held is the serial work of every job reserved or
	// admitted and not yet complete, booked its total, asOf the engine clock
	// when a job last completed (stale is safe: whatever advanced the clock
	// since is still booked). hmu is never held across engine work.
	hmu    sync.Mutex
	held   map[cluster.JobID]time.Duration
	booked time.Duration
	asOf   sim.Time

	finishOnce sync.Once
	finishErr  error
}

// NewService assembles a cluster over the real TCP DFS and starts its
// engine loop. Close (or Abort) must be called to release the listeners.
func NewService(cfg Config) (*Service, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg.clientCtx = ctx
	c, err := newCluster(cfg, true)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Service{
		c:      c,
		cancel: cancel,
		subCh:  make(chan submission),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		seen:   make(map[cluster.JobID]struct{}),
		held:   make(map[cluster.JobID]time.Duration),
	}
	c.onJobDone = s.Release
	go s.loop(s.subCh, s.stopCh, s.doneCh)
	return s, nil
}

// Reserve is the engine's admission verdict on spec, given without waiting on
// the engine: spec is valid and its serial work fits inside the Horizon, in
// which case the work is booked under spec.ID until that job completes or is
// Released. Reserving a booked job is a no-op, so a caller that must answer
// before it can Submit (the daemon) reserves first and Submit books nothing.
func (s *Service) Reserve(spec *cluster.JobSpec) error {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if _, ok := s.held[spec.ID]; ok {
		return nil
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("yarn: %w", err)
	}
	work := spec.TotalWork()
	if work > Horizon-s.asOf-s.booked {
		return fmt.Errorf("%w: job %d needs %v, %v is booked at %v", ErrHorizon, spec.ID, work, s.booked, s.asOf)
	}
	s.held[spec.ID] = work
	s.booked += work
	return nil
}

// Release returns the work booked under id, if any: the job completed at
// virtual time now, which brings the ledger's clock forward, or — now zero —
// its reservation will not be submitted after all.
func (s *Service) Release(id cluster.JobID, now sim.Time) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.booked -= s.held[id]
	delete(s.held, id)
	s.asOf = max(s.asOf, now)
}

// Submit hands a job to the engine loop, rewriting its arrival to the
// current virtual instant, and returns once the job is admitted (or
// rejected: invalid, a duplicate, or past the Horizon). onDone, when
// non-nil, fires on the engine goroutine the moment the job's last task
// completes — it must not block and must not call back into the Service.
// Submit takes ownership of spec.Tasks. Safe for concurrent use.
func (s *Service) Submit(spec cluster.JobSpec, onDone func(JobDone)) error {
	sub := submission{spec: spec, onDone: onDone, errCh: make(chan error, 1)}
	select {
	case s.subCh <- sub:
	case <-s.doneCh:
		return ErrServiceClosed
	}
	select {
	case err := <-sub.errCh:
		return err
	case <-s.doneCh:
		// The loop picked the stop branch before answering: the job was
		// never admitted.
		return ErrServiceClosed
	}
}

// Now reports the engine's virtual clock. It is a snapshot for reporting;
// by the time the caller reads it the loop may have advanced.
func (s *Service) Now() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.engine.Now()
}

// loop owns the engine: it alternates between admitting queued
// submissions (stamped at virtual now) and firing bounded batches of
// events. On stop it drains every already-admitted job to completion —
// the graceful-shutdown contract — then exits.
func (s *Service) loop(subCh <-chan submission, stopCh <-chan struct{}, doneCh chan<- struct{}) {
	defer close(doneCh)
	for {
		select {
		case sub := <-subCh:
			sub.errCh <- s.admit(sub)
			continue
		case <-stopCh:
			s.drain()
			return
		default:
		}
		if s.pending() == 0 {
			// Idle: block until work or shutdown instead of spinning.
			select {
			case sub := <-subCh:
				sub.errCh <- s.admit(sub)
			case <-stopCh:
				s.drain()
				return
			}
			continue
		}
		s.stepBatch()
	}
}

// admit validates and schedules one job at virtual now. Runs on the
// engine goroutine.
func (s *Service) admit(sub submission) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	spec := sub.spec
	now := s.c.engine.Now()
	// The wire has no virtual clock: a job arrives the instant the engine
	// sees it, so its response time measures queueing + execution from
	// admission.
	spec.Submit = now
	for i := range spec.Tasks {
		spec.Tasks[i].Submit = now
	}
	if _, dup := s.seen[spec.ID]; dup {
		return fmt.Errorf("yarn: job %v already submitted", spec.ID)
	}
	if err := s.Reserve(&spec); err != nil {
		return err
	}
	s.seen[spec.ID] = struct{}{}
	if sub.onDone != nil {
		s.c.jobDone[spec.ID] = sub.onDone
	}
	am := newAppMaster(s.c, &spec)
	am.submit(now)
	return nil
}

func (s *Service) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.engine.Pending()
}

func (s *Service) stepBatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < serviceStepBatch && s.c.engine.Pending() > 0; i++ {
		s.c.engine.Step()
	}
}

func (s *Service) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.c.engine.Pending() > 0 {
		s.c.engine.Step()
	}
}

// Close drains the service — no new admissions, every already-admitted
// job runs to completion — then closes the books and releases the TCP
// listeners. It returns the aggregated Result; the error is non-nil if
// any admitted job failed to complete. Idempotent.
func (s *Service) Close() (*Result, error) {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stopCh)
	}
	s.mu.Unlock()
	<-s.doneCh
	s.finishOnce.Do(func() {
		s.c.finish(s.c.engine.Now())
		s.c.close()
		s.cancel()
		if n := len(s.c.jobDone); n != 0 {
			s.finishErr = fmt.Errorf("yarn: service closed with %d jobs incomplete", n)
		}
	})
	return s.c.res, s.finishErr
}

// Abort is Close with the patience removed: it cancels the DFS clients'
// context first, so in-flight and future dump/restore RPC retries fail
// fast and preemptions degrade to kills instead of waiting out real-TCP
// backoff. Admitted jobs still run to completion on the virtual clock —
// the kill path restarts work rather than losing it — so the books still
// balance; the drain is just cheaper.
func (s *Service) Abort() (*Result, error) {
	s.cancel()
	return s.Close()
}
