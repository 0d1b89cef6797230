package clusterd

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
	"preemptsched/internal/storage"
	"preemptsched/internal/yarn"
)

func testConfig() Config {
	cc := yarn.DefaultConfig(core.PolicyCheckpoint, storage.SSD)
	cc.Nodes = 2
	cc.ContainersPerNode = 2
	return Config{
		Addr:        "127.0.0.1:0",
		QueueSize:   16,
		MaxInFlight: 8,
		RetryAfter:  10 * time.Millisecond,
		Cluster:     cc,
	}
}

func submitN(t *testing.T, cli *Client, n int) int64 {
	t.Helper()
	var accepted int64
	for i := 0; i < n; i++ {
		resp, err := cli.Submit(context.Background(), JobRequest{Priority: i % 12, Tasks: 1, DurationMS: 30_000})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.OK {
			accepted++
		}
	}
	return accepted
}

// TestDaemonLifecycleLeakFree runs full start/submit/drain cycles and
// asserts the goroutine count returns to baseline: nothing from the wire
// listener, the service loop, the sampler, the ops server, or the cluster's
// TCP DFS may survive Shutdown.
func TestDaemonLifecycleLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		d, err := Start(testConfig())
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		cli := NewClient(d.Addr())
		accepted := submitN(t, cli, 5)
		cli.Close()
		if err := d.Shutdown(context.Background()); err != nil {
			t.Fatalf("cycle %d shutdown: %v", cycle, err)
		}
		st := d.Stats()
		if st.Completed != accepted || st.Lost != 0 || st.DoubleCompleted != 0 {
			t.Fatalf("cycle %d: completed=%d accepted=%d lost=%d double=%d",
				cycle, st.Completed, accepted, st.Lost, st.DoubleCompleted)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d -> %d across daemon cycles", before, after)
	}
}

// TestDaemonDrainMidStream SIGTERM-equivalent: Shutdown fires while
// submitters are still streaming. Every job acknowledged OK must
// complete exactly once; submissions landing after the drain begins must
// be rejected as draining, not lost.
func TestDaemonDrainMidStream(t *testing.T) {
	d, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 4
	var (
		wg       sync.WaitGroup
		accepted [submitters]int64
	)
	stop := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli := NewClient(d.Addr(), WithClientRetry(1, core.Backoff{}))
			defer cli.Close()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cli.Submit(context.Background(), JobRequest{Priority: j % 12, Tasks: 1, DurationMS: 10_000})
				if err != nil && resp == nil {
					return // daemon gone
				}
				if resp != nil && resp.OK {
					accepted[i]++
				}
				if resp != nil && resp.State == StateDraining {
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the stream run
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	var total int64
	for _, a := range accepted {
		total += a
	}
	st := d.Stats()
	if st.Completed != total {
		t.Errorf("accepted %d jobs but daemon completed %d", total, st.Completed)
	}
	if st.Lost != 0 || st.DoubleCompleted != 0 {
		t.Errorf("lost=%d double=%d, want 0/0", st.Lost, st.DoubleCompleted)
	}
	if st.State != StateStopped {
		t.Errorf("state = %q, want %q", st.State, StateStopped)
	}
}

// GIVEN a daemon whose MaxInFlight is k WHEN a stream of several times k
// jobs is admitted and runs THEN Stats().InFlight, sampled throughout, never
// exceeds k, every accepted job completes exactly once, and InFlight is back
// at 0 once the drain is done.
func TestInFlightCap(t *testing.T) {
	const k = 2
	cfg := testConfig()
	cfg.MaxInFlight = k
	cfg.Cluster.KMeansPoints, cfg.Cluster.KMeansDims, cfg.Cluster.KMeansK, cfg.Cluster.KMeansIters = 8, 2, 2, 2
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, d.Stats().InFlight)
			select {
			case <-stop:
				peak <- most
				return
			default:
			}
		}
	}()
	// Two connections at once, and jobs of a hundred waves on a cluster of
	// four containers: the queue fills faster than the engine empties it.
	const conns = 2
	var (
		wg       sync.WaitGroup
		accepted atomic.Int64
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := NewClient(d.Addr())
			defer cli.Close()
			for i := 0; i < 2*k; i++ {
				resp, err := cli.Submit(context.Background(), JobRequest{Priority: (c + i) % 12, Tasks: 400, DurationMS: 30_000})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if resp.OK {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	if most := <-peak; most > k {
		t.Errorf("InFlight reached %d, cap %d", most, k)
	}
	st := d.Stats()
	if n := accepted.Load(); n == 0 || st.Completed != n || st.DoubleCompleted != 0 || st.Lost != 0 {
		t.Errorf("accepted %d: completed=%d double=%d lost=%d", accepted.Load(), st.Completed, st.DoubleCompleted, st.Lost)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after the drain, want 0", st.InFlight)
	}
}

// TestAdmissionBackpressure pins the queue-full and draining rejection
// semantics without timing races by driving admit directly.
func TestAdmissionBackpressure(t *testing.T) {
	d := bareDaemon(t, Config{QueueSize: 1, RetryAfter: 42 * time.Millisecond})
	// A paid band, so the second answer is the plain queue-full rejection.
	jr := &JobRequest{Priority: 5, Tasks: 1, DurationMS: 1000}

	if resp := d.admit(jr); !resp.OK {
		t.Fatalf("first admit rejected: %+v", resp)
	}
	resp := d.admit(jr)
	if resp.OK {
		t.Fatal("admit into a full queue succeeded")
	}
	if resp.RetryAfterMS != 42 {
		t.Errorf("retry-after = %dms, want 42", resp.RetryAfterMS)
	}

	d.state = StateDraining
	resp = d.admit(jr)
	if resp.OK || resp.RetryAfterMS != 0 || resp.State != StateDraining {
		t.Errorf("draining admit = %+v, want hard rejection with draining state", resp)
	}

	d.state = StateServing
	if resp := d.admit(&JobRequest{Tasks: 0, DurationMS: 1}); resp.OK || resp.RetryAfterMS != 0 {
		t.Errorf("invalid job admit = %+v, want hard rejection", resp)
	}
	if got := d.m.rejected.Value(); got != 3 {
		t.Errorf("rejected counter = %d, want 3", got)
	}
}

// TestPriorityAwareAdmission pins the free-band shedding rule: under
// queue pressure, free-band submissions are rejected at the high-water
// mark while the reserved tail still admits paid bands.
func TestPriorityAwareAdmission(t *testing.T) {
	d := bareDaemon(t, Config{QueueSize: 4, RetryAfter: 7 * time.Millisecond})
	free := &JobRequest{Priority: 0, Tasks: 1, DurationMS: 1000}
	paid := &JobRequest{Priority: 5, Tasks: 1, DurationMS: 1000}

	// Below the high-water mark (QueueSize - QueueSize/4 = 3) both bands
	// are admitted.
	if resp := d.admit(free); !resp.OK {
		t.Fatalf("free admit into an empty queue rejected: %+v", resp)
	}
	for i := 0; i < 2; i++ {
		if resp := d.admit(paid); !resp.OK {
			t.Fatalf("paid admit %d rejected: %+v", i, resp)
		}
	}

	// Depth 3: free band is shed, paid band still fits the reserved tail.
	resp := d.admit(free)
	if resp.OK {
		t.Fatal("free-band admit at the high-water mark succeeded")
	}
	if resp.RetryAfterMS != 7 {
		t.Errorf("shed retry-after = %dms, want 7", resp.RetryAfterMS)
	}
	if !strings.Contains(resp.Error, "free-band") {
		t.Errorf("shed error = %q, want a free-band shedding message", resp.Error)
	}
	if resp := d.admit(paid); !resp.OK {
		t.Fatalf("paid admit into the reserved tail rejected: %+v", resp)
	}

	// Depth 4: the queue is genuinely full for everyone.
	if resp := d.admit(paid); resp.OK || strings.Contains(resp.Error, "free-band") {
		t.Errorf("paid admit into a full queue = %+v, want plain queue-full rejection", resp)
	}
	if got := d.m.shedFreeBand.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// A one-slot queue holds no slot back from an empty queue: the free-band
	// job is admitted, and the next one is shed at the high-water mark.
	one := bareDaemon(t, Config{QueueSize: 1, RetryAfter: 7 * time.Millisecond})
	if resp := one.admit(free); !resp.OK {
		t.Fatalf("free admit into an empty one-slot queue rejected: %+v", resp)
	}
	if resp := one.admit(free); resp.OK || resp.RetryAfterMS != 7 {
		t.Errorf("free admit into a full one-slot queue = %+v, want a retry-after rejection", resp)
	}
}

// TestWireProtocolErrors exercises the unknown-op and malformed-request
// edges over a real connection.
func TestWireProtocolErrors(t *testing.T) {
	d, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())

	cli := NewClient(d.Addr())
	defer cli.Close()
	resp, err := cli.do(context.Background(), &Request{Op: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Errorf("bogus op response = %+v", resp)
	}
	if _, err := cli.do(context.Background(), &Request{Op: "submit"}); err != nil {
		t.Errorf("submit without job should answer, got transport error %v", err)
	}
	state, err := cli.Ping(context.Background())
	if err != nil || state != StateServing {
		t.Errorf("ping = %q/%v, want serving/nil", state, err)
	}
}

// TestSoakWithFaults is the in-process chaos soak: open-loop load with
// the DFS fault injectors live, then drain and check every invariant the
// CI soak job enforces (nothing lost, nothing doubled, p99 admission in
// budget, bounded goroutine/heap growth).
func TestSoakWithFaults(t *testing.T) {
	cfg := testConfig()
	cfg.OpsAddr = "127.0.0.1:0"
	cfg.Cluster.Faults = &faults.Plan{Seed: 11, RPCErrorRate: 0.02, TornWriteRate: 0.02}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur := 2 * time.Second
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := RunLoad(context.Background(), LoadConfig{
		Addr:         d.Addr(),
		Rate:         100,
		Duration:     dur,
		Seed:         4242,
		TasksPerJob:  2,
		TaskDuration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Accepted == 0 {
		t.Fatalf("no load offered/accepted: %+v", rep)
	}
	if err := rep.Check(250*time.Millisecond, 20, 64<<20); err != nil {
		t.Errorf("soak check: %v", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if st := d.Stats(); st.Lost != 0 || st.DoubleCompleted != 0 {
		t.Errorf("post-drain lost=%d double=%d", st.Lost, st.DoubleCompleted)
	}
}

// GIVEN Stats.HeapBytes and the clusterd.heap.bytes gauge now read
// through runtime/metrics instead of the stop-the-world ReadMemStats,
// WHEN the process holds a known amount of extra heap,
// THEN the reading moves by at least that much and stays in step with
// MemStats.HeapAlloc, so the soak's growth check keeps its meaning.
func TestHeapBytesTracksHeapAlloc(t *testing.T) {
	// A full collection on each side of the allocation leaves no garbage
	// in either reading, whatever ran before this test.
	runtime.GC()
	before := heapBytes()
	if before == 0 {
		t.Fatal("heapBytes read 0: runtime/metrics does not export /memory/classes/heap/objects:bytes")
	}
	const slab = 32 << 20
	held := make([]byte, slab)
	runtime.GC()
	after := heapBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(held)
	const slack = 4 << 20
	if grew := int64(after) - int64(before); grew < slab-slack || grew > slab+slack {
		t.Errorf("heapBytes %d -> %d with %d more bytes held", before, after, slab)
	}
	if diff := int64(ms.HeapAlloc) - int64(after); diff < -slack || diff > slack {
		t.Errorf("heapBytes %d vs MemStats.HeapAlloc %d: more than 4 MiB apart", after, ms.HeapAlloc)
	}
}

// discard is an observer that is not a recorder.
type discard struct{}

func (discard) Observe(obs.Event) {}

// GIVEN a daemon config whose cluster observer is a caller's recorder, a
// nil *obs.Recorder, or an observer that is not a recorder,
// WHEN the daemon starts,
// THEN the caller's recorder is the daemon's journal and receives the drain
// markers, a nil one is replaced by an always-on recorder, and any other
// observer is refused: Recorder() must hand back the journal every edge
// went to.
func TestStartObservesOnlyThroughARecorder(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Observer = discard{}
	if d, err := Start(cfg); err == nil {
		d.Shutdown(context.Background())
		t.Fatal("Start accepted an observer that is not an *obs.Recorder")
	} else if !strings.Contains(err.Error(), "Observer") {
		t.Errorf("error %q does not name the Observer", err)
	}

	for _, tc := range []struct {
		name string
		rec  *obs.Recorder
	}{{"caller's recorder", obs.NewRecorder(0, 0)}, {"nil recorder", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Cluster.Observer = tc.rec
			d, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			rec := d.Recorder()
			if rec == nil || (tc.rec != nil && rec != tc.rec) {
				t.Fatalf("Recorder() = %p, want the caller's %p or a fresh one", rec, tc.rec)
			}
			var buf bytes.Buffer
			if _, err := rec.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			j, err := obs.ReadJournal(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, r := range j.Records {
				names = append(names, r.Name)
			}
			if want := []string{"drain-begin", "drain-end"}; !slices.Equal(names, want) {
				t.Errorf("an idle daemon journaled %v, want %v", names, want)
			}
		})
	}
}
