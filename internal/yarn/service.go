package yarn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// ErrServiceClosed is returned by Reserve once Close has begun: the job was
// not admitted and will never run.
var ErrServiceClosed = errors.New("yarn: service closed")

// Horizon bounds where admission lets the virtual clock be driven: a job is
// admitted only while the clock, plus the serial work (summed task durations)
// of everything admitted and unfinished, plus its own stays inside it. It is
// a quarter of the int64 clock (73 years): the clock also advances for what
// admission cannot price — checkpoint windows, work re-run after a kill.
const Horizon = sim.Time(math.MaxInt64 / 4)

// ErrHorizon is wrapped by Reserve for a job that does not fit
// inside the Horizon: it was not admitted and will never run.
var ErrHorizon = errors.New("yarn: job would carry the virtual clock past the horizon")

// JobDone reports one job's completion to the service's callback.
type JobDone struct {
	ID cluster.JobID
	// At is the completion instant on the virtual clock.
	At sim.Time
	// ResponseSec is virtual response time (completion minus submission)
	// in seconds — the paper's job response metric.
	ResponseSec float64
	Tasks       int
}

// serviceStepBatch bounds how many events the loop fires between polls of
// the admission queue: large enough to amortize the select, small enough
// that a new arrival lands on the virtual clock promptly.
const serviceStepBatch = 256

// Service runs the framework as a long-lived online system: jobs stream in
// while the engine executes, instead of being fixed up front as in Run. A
// job enters in two steps — Reserve, the admission verdict, then a send on
// the admission queue the service was built with — and one loop goroutine
// owns the engine: it alternates between receiving from that queue and
// stepping the engine in bounded batches, so arrivals interleave with
// execution. No other goroutine touches the engine: Now reads the clock
// the loop publishes after each batch, and Close reads the engine only
// once the loop has exited. The DFS underneath is the real TCP transport:
// checkpoint dumps and restores are genuine RPCs against per-node
// listeners, subject to Config.Faults.
//
// Virtual time runs ahead of real time (the engine never sleeps), so a
// job's virtual response says what the paper's policies would deliver,
// while the real DFS I/O on the dump/restore paths provides the
// concurrency and failure surface a daemon must survive.
//
// A Service keeps only what is in flight: a finished job leaves nothing
// behind that grows with the number of jobs run. Its Result keeps no
// per-task checksums (TaskChecksumDigest folds them) and no all-jobs
// response samples (JobResponseAllSec is nil; the SLO's response histogram
// holds that distribution), and the admission ledger forgets a job once it
// completes.
type Service struct {
	c      *Cluster
	cancel context.CancelFunc
	onDone func(JobDone)

	// inFlight counts the jobs the loop has admitted that have not
	// completed; the loop stops receiving while it is at maxInFlight.
	inFlight    atomic.Int64
	maxInFlight int64

	stopCh chan struct{}
	doneCh chan struct{}

	// now is the engine clock the loop publishes after each batch of
	// steps, for Now.
	now atomic.Int64

	// The admission ledger, under hmu. held is the serial work of every
	// job reserved and not yet complete, keyed by its ID, so an ID still
	// held is refused; one unique over the service's lifetime is the
	// caller's to hand out (the daemon's are a monotone counter). booked is
	// held's total, asOf the engine clock when a job last completed (stale
	// is safe: whatever advanced the clock since is still booked). hmu is
	// never held across engine work or the callback.
	hmu     sync.Mutex
	closing bool
	held    map[cluster.JobID]time.Duration
	booked  time.Duration
	asOf    sim.Time

	finishOnce sync.Once
	finishErr  error
}

// NewService assembles a cluster over the real TCP DFS and starts its engine
// loop, which admits the jobs sent on in, at most maxInFlight unfinished at
// a time. Every job sent on in must have been Reserved first.
// onDone, when non-nil, fires on the engine goroutine the moment a job's
// last task completes: it must not block and must not call back into the
// Service. Close (or Abort) must be called to release the listeners.
func NewService(cfg Config, in <-chan cluster.JobSpec, maxInFlight int, onDone func(JobDone)) (*Service, error) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg.clientCtx = ctx
	c, err := newCluster(cfg, true)
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Service{
		c:           c,
		cancel:      cancel,
		onDone:      onDone,
		maxInFlight: int64(maxInFlight),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		held:        make(map[cluster.JobID]time.Duration),
	}
	c.res.TaskChecksums, c.res.JobResponseAllSec = nil, nil
	c.onJobDone = s.complete
	go s.loop(in, s.stopCh)
	return s, nil
}

// Reserve is the service's admission verdict on spec, given without waiting
// on the engine: the service is not closing, spec's ID is not booked (held
// by a job reserved and not yet complete), spec is valid and its serial
// work fits inside the Horizon. On a yes the work is booked under spec.ID
// until that job completes or is Released, and the caller sends spec on
// the admission queue, where the loop takes it as it is.
func (s *Service) Reserve(spec *cluster.JobSpec) error {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	if s.closing {
		return ErrServiceClosed
	}
	if _, dup := s.held[spec.ID]; dup {
		return fmt.Errorf("yarn: job %v is already booked", spec.ID)
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
// its reservation will not be sent after all.
func (s *Service) Release(id cluster.JobID, now sim.Time) {
	s.hmu.Lock()
	defer s.hmu.Unlock()
	s.booked -= s.held[id]
	delete(s.held, id)
	s.asOf = max(s.asOf, now)
}

// complete is the cluster's completion hook: the job gives its work back and
// its in-flight slot, then the caller hears of it.
func (s *Service) complete(done JobDone) {
	s.Release(done.ID, done.At)
	s.inFlight.Add(-1)
	if s.onDone != nil {
		s.onDone(done)
	}
}

// InFlight reports how many admitted jobs have not completed.
func (s *Service) InFlight() int { return int(s.inFlight.Load()) }

// Now reports the engine's virtual clock as of the loop's last batch of
// steps. It is a snapshot for reporting; by the time the caller reads it
// the loop may have advanced.
func (s *Service) Now() sim.Time { return sim.Time(s.now.Load()) }

// loop owns the engine: while it has events to fire it admits at most one
// job from in (stamped at virtual now) per bounded batch of them, so
// arrivals spread over the virtual clock, and none while maxInFlight are
// unfinished. Once Close has begun it still admits whatever is buffered and
// runs the engine dry — the graceful-shutdown contract — then exits.
func (s *Service) loop(in <-chan cluster.JobSpec, stop <-chan struct{}) {
	defer close(s.doneCh)
	for {
		recv := in
		if s.inFlight.Load() >= s.maxInFlight {
			recv = nil // only a completion makes room
		}
		if s.c.engine.Pending() > 0 {
			select {
			case spec, ok := <-recv:
				if ok {
					s.admit(spec)
				} else {
					in = nil
				}
			default:
			}
			s.stepBatch()
			continue
		}
		if stop == nil && len(recv) == 0 {
			return
		}
		// Idle: block until work or Close instead of spinning.
		select {
		case spec, ok := <-recv:
			if ok {
				s.admit(spec)
			} else {
				in = nil
			}
		case <-stop:
			stop = nil
		}
	}
}

// admit schedules one job at virtual now. Runs on the engine goroutine.
func (s *Service) admit(spec cluster.JobSpec) {
	now := s.c.engine.Now()
	// The wire has no virtual clock: a job arrives the instant the engine
	// sees it, so its response time measures queueing + execution from
	// admission.
	spec.Submit = now
	for i := range spec.Tasks {
		spec.Tasks[i].Submit = now
	}
	s.inFlight.Add(1)
	newAppMaster(s.c, &spec).submit(now)
}

func (s *Service) stepBatch() {
	for i := 0; i < serviceStepBatch && s.c.engine.Pending() > 0; i++ {
		s.c.engine.Step()
	}
	s.now.Store(int64(s.c.engine.Now()))
}

// Close drains the service — Reserve refuses from now on, whatever is
// buffered on the admission queue is admitted, and every admitted job runs
// to completion — then closes the books and releases the TCP listeners. It
// returns the aggregated Result; the error is non-nil if any reserved job
// failed to complete. A task whose program failed to run out panics here,
// as it does at the end of Run. Idempotent.
func (s *Service) Close() (*Result, error) {
	s.hmu.Lock()
	if !s.closing {
		s.closing = true
		close(s.stopCh)
	}
	s.hmu.Unlock()
	<-s.doneCh
	s.finishOnce.Do(func() {
		s.c.finish(s.c.engine.Now())
		s.c.close()
		s.cancel()
		s.hmu.Lock()
		defer s.hmu.Unlock()
		if n := len(s.held); n != 0 {
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
