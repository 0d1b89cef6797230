package yarn

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/sim"
	"preemptsched/internal/storage"
)

func serviceJob(id cluster.JobID, prio cluster.Priority, tasks int, dur time.Duration) cluster.JobSpec {
	j := cluster.JobSpec{ID: id, Priority: prio}
	for i := 0; i < tasks; i++ {
		j.Tasks = append(j.Tasks, cluster.TaskSpec{
			ID:           cluster.TaskID{Job: id, Index: int32(i)},
			Priority:     prio,
			Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
			MemFootprint: cluster.GiB(1),
			Duration:     dur,
		})
	}
	return j
}

func serviceConfig(policy core.Policy) Config {
	cfg := DefaultConfig(policy, storage.SSD)
	cfg.Nodes = 2
	cfg.ContainersPerNode = 2
	return cfg
}

// queuedService is a Service with the send end of its admission queue.
type queuedService struct {
	*Service
	in chan<- cluster.JobSpec
}

// startService boots a Service the way the daemon does: over a bounded
// admission queue, under an in-flight cap, with one completion callback.
func startService(cfg Config, onDone func(JobDone)) (queuedService, error) {
	in := make(chan cluster.JobSpec, 64)
	s, err := NewService(cfg, in, 256, onDone)
	return queuedService{s, in}, err
}

// submit hands spec to the service as every caller must: Reserve, and on a
// yes, send it on the admission queue.
func (s queuedService) submit(spec cluster.JobSpec) error {
	if err := s.Reserve(&spec); err != nil {
		return err
	}
	s.in <- spec
	return nil
}

// TestServiceStreamsJobsToCompletion boots the service over real TCP
// listeners, streams jobs in concurrently, and verifies the completion
// callback fires exactly once per job before Close returns.
func TestServiceStreamsJobsToCompletion(t *testing.T) {
	var (
		mu   sync.Mutex
		done = make(map[cluster.JobID]int)
	)
	s, err := startService(serviceConfig(core.PolicyCheckpoint), func(d JobDone) {
		mu.Lock()
		done[d.ID]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 6
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(id cluster.JobID) {
			defer wg.Done()
			if err := s.submit(serviceJob(id, cluster.Priority(id)%11, 2, 30*time.Second)); err != nil {
				t.Errorf("submit %d: %v", id, err)
			}
		}(cluster.JobID(i))
	}
	wg.Wait()
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(done) != jobs {
		t.Fatalf("completions for %d jobs, want %d", len(done), jobs)
	}
	for id, n := range done {
		if n != 1 {
			t.Errorf("job %d completed %d times", id, n)
		}
	}
	if jobsCompleted(res) != jobs || res.TasksCompleted != jobs*2 {
		t.Errorf("result jobs=%d tasks=%d, want %d/%d", jobsCompleted(res), res.TasksCompleted, jobs, jobs*2)
	}
}

// TestServiceRejectsAfterClose proves the no-admission half of the drain
// contract and that Close is idempotent.
func TestServiceRejectsAfterClose(t *testing.T) {
	s, err := startService(serviceConfig(core.PolicyKill), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.submit(serviceJob(0, 0, 1, time.Second)); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("submit after close = %v, want ErrServiceClosed", err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestServiceDuplicateAndInvalidSubmitRejected exercises the validation
// edge of admission without losing the loop. The first job is reserved and
// sent only after its duplicate is refused: once sent, the loop may run it
// to completion before the duplicate arrives, and an ID is refused only
// while it is booked.
func TestServiceDuplicateAndInvalidSubmitRejected(t *testing.T) {
	s, err := startService(serviceConfig(core.PolicyCheckpoint), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.submit(cluster.JobSpec{ID: 9}); err == nil {
		t.Error("taskless job admitted")
	}
	long := serviceJob(1, 0, 1, 10*time.Minute)
	if err := s.Reserve(&long); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := s.submit(serviceJob(1, 0, 1, time.Second)); err == nil {
		t.Error("duplicate of a booked job admitted")
	}
	s.in <- long
}

// TestServiceAbortUnderFaults drives the service with the fault injector
// live, then aborts mid-stream: every admitted job must still complete
// (the kill/restart ladder absorbs cancelled DFS I/O) and the listeners
// and serve goroutines must be gone afterwards.
func TestServiceAbortUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := serviceConfig(core.PolicyCheckpoint)
	cfg.Faults = &faults.Plan{Seed: 7, RPCErrorRate: 0.05, TornWriteRate: 0.05}
	s, err := startService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.submit(serviceJob(cluster.JobID(i), 10, 1, time.Minute)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	res, err := s.Abort()
	if err != nil {
		t.Fatalf("abort: %v", err)
	}
	if jobsCompleted(res) != 4 {
		t.Errorf("jobs completed = %d, want 4", jobsCompleted(res))
	}
	// The serve goroutines exit when close() returns; give the runtime a
	// beat to reap them before comparing counts.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d across service lifecycle", before, after)
	}
}

const year = 365 * 24 * time.Hour

// GIVEN a service on one node with one slot WHEN a client submits a job
// whose two tasks need 150 years each — serial work that carries the int64
// virtual clock past its end — THEN Reserve refuses it with ErrHorizon, the
// loop survives, and an ordinary job submitted next runs to completion. At
// the parent commit the job is admitted and the second task's completion
// timer panics sim.Engine on the loop goroutine ("event scheduled in the
// past: now=1314000h0m0s requested=-2496095h…"), taking the process down.
func TestHorizonRefusesWorkThatWouldWrapTheClock(t *testing.T) {
	cfg := serviceConfig(core.PolicyCheckpoint)
	cfg.Nodes, cfg.ContainersPerNode = 1, 1
	done := make(chan JobDone, 1)
	s, err := startService(cfg, func(d JobDone) { done <- d })
	if err != nil {
		t.Fatal(err)
	}
	err = s.submit(serviceJob(1, 1, 2, 150*year))
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("two 150-year tasks on one slot: Reserve = %v, want ErrHorizon", err)
	}
	if err := s.submit(serviceJob(2, 1, 2, time.Minute)); err != nil {
		t.Fatalf("ordinary job after the refusal: %v", err)
	}
	if d := <-done; d.ID != 2 || d.Tasks != 2 {
		t.Errorf("completion = %+v, want job 2 with its 2 tasks", d)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if jobsCompleted(res) != 1 || res.TasksCompleted != 2 {
		t.Errorf("completed %d jobs / %d tasks, want 1 / 2", jobsCompleted(res), res.TasksCompleted)
	}
}

// TestHorizonLedger pins the admission arithmetic: the clock, plus the
// serial work of everything booked and unfinished, plus the job's own must
// stay inside Horizon; a completed job returns its work and brings the
// ledger's clock forward; a reserved job is not booked twice, neither by a
// second Reserve nor by the loop that admits it; a sum of durations that
// wraps int64 is past the horizon, not before it.
func TestHorizonLedger(t *testing.T) {
	done := make(chan JobDone, 1)
	s, err := startService(serviceConfig(core.PolicyCheckpoint), func(d JobDone) { done <- d }) // 2 nodes x 2 slots
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reserve := func(id cluster.JobID, tasks int, dur time.Duration) error {
		spec := serviceJob(id, 1, tasks, dur)
		return s.Reserve(&spec)
	}

	if err := reserve(1, 2, 20*year); err != nil {
		t.Fatalf("40 years of work on an empty ledger: %v", err)
	}
	if err := reserve(2, 1, 35*year); !errors.Is(err, ErrHorizon) {
		t.Fatalf("35 years on top of 40 booked: %v, want ErrHorizon", err)
	}
	if err := reserve(1, 2, 20*year); err == nil || errors.Is(err, ErrHorizon) {
		t.Fatalf("reserving a booked job again: %v, want the duplicate-ID error", err)
	}
	if err := reserve(3, 1, Horizon-40*year); err != nil {
		t.Fatalf("work that lands exactly on the horizon: %v", err)
	}
	if err := reserve(4, 1, 1); !errors.Is(err, ErrHorizon) {
		t.Fatalf("one nanosecond past the horizon: %v, want ErrHorizon", err)
	}
	s.Release(3, 0)
	s.Release(3, 0) // holds nothing any more: a no-op
	if err := reserve(5, 4, math.MaxInt64/2); !errors.Is(err, ErrHorizon) {
		t.Fatalf("durations whose sum wraps int64: %v, want ErrHorizon", err)
	}
	if err := reserve(6, 0, time.Second); err == nil || errors.Is(err, ErrHorizon) {
		t.Fatalf("taskless job: %v, want the validation error", err)
	}

	// Job 1 runs its two 20-year tasks side by side: the loop admitting it
	// books nothing new, and its completion returns the 40 years and moves
	// the ledger's clock to 20 years (and a few checkpoint-free seconds).
	s.in <- serviceJob(1, 1, 2, 20*year)
	if d := <-done; d.At < 20*year || d.At > 20*year+time.Hour {
		t.Fatalf("job 1 completed at %v, want about 20 years", d.At)
	}
	if err := reserve(7, 1, 54*year); !errors.Is(err, ErrHorizon) {
		t.Fatalf("54 years from a clock at 20: %v, want ErrHorizon", err)
	}
	if err := reserve(8, 1, 53*year); err != nil {
		t.Fatalf("53 years from a clock at 20 with nothing booked: %v", err)
	}
}

// GIVEN a service streaming jobs in while a second goroutine polls Now,
// WHEN the loop runs them to completion and Close returns,
// THEN no value polled is less than the one before it or greater than the
// run's makespan, and once Close has returned Now is the makespan: the
// loop publishes the engine clock after each batch of steps, and its last
// batch is the one that ran the engine dry.
func TestServiceNowFollowsTheLoop(t *testing.T) {
	s, err := startService(serviceConfig(core.PolicyCheckpoint), nil)
	if err != nil {
		t.Fatal(err)
	}
	type polled struct {
		n, distinct int
		last        sim.Time
		backwards   string
	}
	stop, out := make(chan struct{}), make(chan polled)
	go func() {
		var p polled
		for {
			now := s.Now()
			if now < p.last && p.backwards == "" {
				p.backwards = fmt.Sprintf("Now read %v after %v", now, p.last)
			}
			if p.n == 0 || now != p.last {
				p.distinct++
			}
			p.n++
			p.last = now
			select {
			case <-stop:
				out <- p
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 24; i++ {
		if err := s.submit(serviceJob(cluster.JobID(i), cluster.Priority(i%11), 3, 30*time.Second)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	close(stop)
	p := <-out
	t.Logf("%d reads, %d distinct values", p.n, p.distinct)
	if p.backwards != "" {
		t.Error(p.backwards)
	}
	if makespan := sim.Time(res.Makespan); p.last > makespan {
		t.Errorf("Now read %v, past the makespan %v", p.last, makespan)
	}
	if got, want := s.Now(), sim.Time(res.Makespan); got != want || want == 0 {
		t.Errorf("Now after Close = %v, want the makespan %v", got, want)
	}
}

// foldChecksums is TaskChecksumDigest recomputed from a per-task map.
func foldChecksums(sums map[cluster.TaskID]uint64) uint64 {
	var d uint64
	for id, sum := range sums {
		d += checksumTerm(id, sum)
	}
	return d
}

// contendedJobs is a seeded job list that preempts on serviceConfig's 2 × 2
// slots however its arrivals spread: job 0 fills every slot with 24-hour
// tasks at the lowest priority, and each later job, of 1–3 tasks of 5–20
// minutes at a seeded priority above it, needs a slot job 0 holds. For Run
// job i is submitted at i hours; a Service stamps each arrival itself.
func contendedJobs(seed int64, n int) []cluster.JobSpec {
	rng := sim.NewRNG(seed)
	jobs := []cluster.JobSpec{serviceJob(0, 0, 4, 24*time.Hour)}
	for id := cluster.JobID(1); int(id) < n; id++ {
		prio := cluster.Priority(1 + rng.Intn(int(cluster.MaxPriority)))
		j := serviceJob(id, prio, 1+rng.Intn(3), time.Duration(5+rng.Intn(16))*time.Minute)
		j.Submit = time.Duration(id) * time.Hour
		for i := range j.Tasks {
			j.Tasks[i].Submit = j.Submit
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// GIVEN one seeded, contended job list and the checkpoint policy,
// WHEN it runs as a batch through Run and streams through a Service (where
// the virtual clock re-stamps each arrival and the real-time interleaving
// picks which tasks are preempted, dumped and restored),
// THEN both complete the same tasks and fold their checksums into the same
// TaskChecksumDigest — the service's transparency proof, kept in one word
// instead of one entry per task; Run's digest is the fold of its own
// per-task map; and flipping any one bit of any one task's checksum before
// the fold moves the digest.
func TestServiceDigestMatchesRun(t *testing.T) {
	cfg := serviceConfig(core.PolicyCheckpoint)
	// The liveness tick gives a 24-hour task thousands of events, so the
	// loop's one admission per batch of them lands every later job while
	// job 0 still holds its slots.
	cfg.NMLivenessTimeout = 30 * time.Second
	jobs := contendedJobs(49, 8)

	ref, err := Run(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.TaskChecksums) != countTasks(jobs) || ref.Checkpoints == 0 {
		t.Fatalf("Run: %d checksums for %d tasks, %d checkpoints: not a contended run",
			len(ref.TaskChecksums), countTasks(jobs), ref.Checkpoints)
	}
	if got := foldChecksums(ref.TaskChecksums); got != ref.TaskChecksumDigest {
		t.Errorf("Run's digest %#x is not the fold %#x of its own checksums", ref.TaskChecksumDigest, got)
	}

	s, err := startService(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range jobs {
		if err := s.submit(spec); err != nil {
			t.Fatalf("submit %d: %v", spec.ID, err)
		}
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	t.Logf("Run: %d preemptions, %d restores; Service: %d preemptions, %d restores",
		ref.Preemptions, ref.Restores, res.Preemptions, res.Restores)
	if res.Checkpoints == 0 || res.Restores == 0 {
		t.Errorf("the service run checkpointed %d and restored %d tasks: nothing was resumed", res.Checkpoints, res.Restores)
	}
	if res.TasksCompleted != ref.TasksCompleted {
		t.Errorf("Service completed %d tasks, Run %d", res.TasksCompleted, ref.TasksCompleted)
	}
	if res.TaskChecksumDigest != ref.TaskChecksumDigest {
		t.Errorf("Service digest %#x, Run digest %#x", res.TaskChecksumDigest, ref.TaskChecksumDigest)
	}

	flipped := maps.Clone(ref.TaskChecksums)
	bit := 0
	for id, sum := range ref.TaskChecksums {
		flipped[id] = sum ^ 1<<(bit%64)
		if foldChecksums(flipped) == ref.TaskChecksumDigest {
			t.Errorf("flipping bit %d of task %v's checksum leaves the digest unchanged", bit%64, id)
		}
		flipped[id] = sum
		bit += 7
	}
}

// GIVEN a Service that has drained a stream of jobs,
// WHEN its books are read,
// THEN nothing in them grows with the number of jobs run: the admission
// ledger holds no job, the Result keeps no per-task checksum map and no
// all-jobs response samples, and yet the digest, the per-band response
// means and the SLO's response histogram account for every job.
func TestServiceKeepsNothingPerFinishedJob(t *testing.T) {
	var wg sync.WaitGroup
	s, err := startService(serviceConfig(core.PolicyCheckpoint), func(JobDone) { wg.Done() })
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 40
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		if err := s.submit(serviceJob(cluster.JobID(i), cluster.Priority(i%12), 1+i%3, time.Minute)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	s.hmu.Lock()
	held, booked := len(s.held), s.booked
	s.hmu.Unlock()
	if held != 0 || booked != 0 {
		t.Errorf("after the drain the ledger holds %d jobs, %v of work", held, booked)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if res.TaskChecksums != nil || res.JobResponseAllSec != nil {
		t.Errorf("the service kept %d task checksums and %v response samples",
			len(res.TaskChecksums), res.JobResponseAllSec)
	}
	var banded int
	for _, tally := range res.JobResponseSec {
		banded += tally.N
	}
	if jobsCompleted(res) != jobs || banded != jobs || res.TaskChecksumDigest == 0 {
		t.Errorf("%d jobs completed, %d in the band means, digest %#x", jobsCompleted(res), banded, res.TaskChecksumDigest)
	}
}
