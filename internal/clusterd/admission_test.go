package clusterd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/yarn"
)

// rawExchange writes one request line as given and reads one reply line.
func rawExchange(t *testing.T, conn net.Conn, br *bufio.Reader, line string) Response {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply to %.60q: %v", line, err)
	}
	var resp Response
	if err := json.Unmarshal([]byte(reply), &resp); err != nil {
		t.Fatalf("reply %q: %v", reply, err)
	}
	return resp
}

// GIVEN a serving daemon WHEN a client submits a job the engine cannot run —
// a footprint above the fixed container demand, a duration whose conversion
// to nanoseconds wraps, more tasks than the protocol allows, a request
// longer than the byte bound — THEN each is a hard rejection (ok false, no
// retry-after) that names the offending field, nothing is counted admitted,
// and after runnable jobs on either side of them the drain is clean: an
// admitted job is never lost. At the parent commit every one of them is
// answered ok; those the engine then refuses are booked lost, and Shutdown
// fails with "jobs lost in drain".
func TestAdmittedMeansRunnable(t *testing.T) {
	d, err := Start(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	conn, br := dial()
	defer func() { conn.Close() }()

	const good = `{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000}}`
	if resp := rawExchange(t, conn, br, good); !resp.OK {
		t.Fatalf("runnable job rejected: %+v", resp)
	}
	for _, tc := range []struct {
		name, line, wantErr string
		closes              bool // the daemon hangs up after answering
	}{
		{name: "footprint above the container's memory",
			line:    `{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000,"mem_footprint_bytes":3221225472}}`,
			wantErr: "footprint"},
		{name: "duration that wraps time.Duration to zero",
			line:    fmt.Sprintf(`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":%d}}`, int64(1)<<62),
			wantErr: "duration"},
		{name: "duration that wraps positive",
			line:    fmt.Sprintf(`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":%d}}`, maxDurationMS+1),
			wantErr: "duration"},
		{name: "more tasks than the protocol allows",
			line:    fmt.Sprintf(`{"op":"submit","job":{"priority":1,"tasks":%d,"duration_ms":1000}}`, MaxJobTasks+1),
			wantErr: "tasks"},
		{name: "request longer than the byte bound",
			line:    `{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000,"user":"` + strings.Repeat("u", MaxRequestBytes) + `"}}`,
			wantErr: "longer than", closes: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := rawExchange(t, conn, br, tc.line)
			if resp.OK || resp.RetryAfterMS != 0 || resp.JobID != 0 {
				t.Errorf("answer = %+v, want a hard rejection", resp)
			}
			if !strings.Contains(resp.Error, tc.wantErr) {
				t.Errorf("error %q does not name %q", resp.Error, tc.wantErr)
			}
			if resp.State != StateServing {
				t.Errorf("state = %q, want %q", resp.State, StateServing)
			}
			if tc.closes {
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				if _, err := br.ReadByte(); err == nil {
					t.Error("connection still open after an over-long request")
				}
				conn.Close()
				conn, br = dial()
			}
		})
	}
	// A footprint of exactly the container's memory is runnable.
	edge := fmt.Sprintf(`{"op":"submit","job":{"priority":11,"tasks":3,"duration_ms":1000,"mem_footprint_bytes":%d}}`, int64(2)<<30)
	if resp := rawExchange(t, conn, br, edge); !resp.OK {
		t.Fatalf("job at the footprint bound rejected: %+v", resp)
	}

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after the rejected submissions: %v", err)
	}
	st := d.Stats()
	if st.Admitted != 2 || st.Completed != 2 || st.Lost != 0 || st.DoubleCompleted != 0 {
		t.Errorf("books: admitted=%d completed=%d lost=%d double=%d, want 2/2/0/0",
			st.Admitted, st.Completed, st.Lost, st.DoubleCompleted)
	}
	// Four rejected at admission; the over-long request never became one.
	if st.Submitted != 6 || st.Rejected != 4 {
		t.Errorf("books: submitted=%d rejected=%d, want 6/4", st.Submitted, st.Rejected)
	}
}

// GIVEN a serving daemon on one node with one slot WHEN a client submits the
// job ROADMAP's proof-harness item (e) describes — 10,000 tasks of 150 years,
// which passes JobRequest.validate and JobSpec.Validate, and whose serial
// work carries the int64 virtual clock past its end — THEN it is a hard
// rejection that names the horizon, the same connection still answers ping,
// a runnable job submitted next completes, and the drain is clean. At the
// parent commit the job is answered ok and sim.Engine panics on the
// service's loop goroutine ("event scheduled in the past"): one request
// takes the daemon down.
func TestHorizonRejectionKeepsTheDaemonUp(t *testing.T) {
	cfg := testConfig()
	cfg.Cluster.Nodes, cfg.Cluster.ContainersPerNode = 1, 1
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	for _, line := range []string{
		`{"op":"submit","job":{"priority":1,"tasks":10000,"duration_ms":4730400000000}}`,
		// Two such tasks are already too many, and so is one of them on top of
		// nothing: 150 years is past the horizon by itself.
		`{"op":"submit","job":{"priority":1,"tasks":2,"duration_ms":4730400000000}}`,
		`{"op":"submit","job":{"priority":11,"tasks":1,"duration_ms":4730400000000}}`,
	} {
		resp := rawExchange(t, conn, br, line)
		if resp.OK || resp.RetryAfterMS != 0 || resp.JobID != 0 || !strings.Contains(resp.Error, "horizon") {
			t.Fatalf("answer to %s = %+v, want a hard rejection naming the horizon", line, resp)
		}
	}
	if resp := rawExchange(t, conn, br, `{"op":"ping"}`); !resp.OK || resp.State != StateServing {
		t.Fatalf("ping after the rejections = %+v, want ok from a serving daemon", resp)
	}
	if resp := rawExchange(t, conn, br, `{"op":"submit","job":{"priority":1,"tasks":2,"duration_ms":1000}}`); !resp.OK {
		t.Fatalf("runnable job after the rejections: %+v", resp)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := d.Stats()
	if st.Submitted != 4 || st.Rejected != 3 || st.Admitted != 1 || st.Completed != 1 || st.Lost != 0 {
		t.Errorf("books: submitted=%d rejected=%d admitted=%d completed=%d lost=%d, want 4/3/1/1/0",
			st.Submitted, st.Rejected, st.Admitted, st.Completed, st.Lost)
	}
}

// bareDaemon is a daemon around a real yarn.Service with no listener, whose
// service reads a queue nobody writes: what admit queues stays queued for the
// test to inspect.
func bareDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	svc, err := yarn.NewService(testConfig().Cluster, make(chan cluster.JobSpec), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return daemonOn(svc, cfg)
}

// daemonOn is a fresh daemon with no listener around svc, whose first job
// ID is one: its own books, queue and ID sequence.
func daemonOn(svc *yarn.Service, cfg Config) *Daemon {
	cfg = cfg.withDefaults()
	return &Daemon{
		cfg:         cfg,
		svc:         svc,
		m:           resolveMetrics(obs.NewRegistry()),
		queue:       make(chan cluster.JobSpec, cfg.QueueSize),
		state:       StateServing,
		outstanding: make(map[cluster.JobID]struct{}),
	}
}

// GIVEN a job whose mem_footprint_bytes is negative WHEN it is submitted THEN
// it is a hard rejection naming the footprint, and nothing is queued. Only
// zero means the 1 GiB default; at the parent commit a negative footprint
// was silently replaced by that default and the job admitted.
func TestNegativeFootprintIsRejected(t *testing.T) {
	d := bareDaemon(t, Config{QueueSize: 1})
	resp := d.admit(&JobRequest{Priority: 1, Tasks: 1, DurationMS: 1000, MemFootprintBytes: -1})
	if resp.OK || resp.RetryAfterMS != 0 || resp.JobID != 0 || !strings.Contains(resp.Error, "footprint") {
		t.Errorf("answer = %+v, want a hard rejection naming the footprint", resp)
	}
	if n := len(d.queue); n != 0 {
		t.Errorf("%d jobs queued", n)
	}
	if resp := d.admit(&JobRequest{Priority: 1, Tasks: 1, DurationMS: 1000}); !resp.OK {
		t.Fatalf("job with the default footprint: %+v", resp)
	}
	if spec := <-d.queue; spec.Tasks[0].MemFootprint != cluster.GiB(1) {
		t.Errorf("zero footprint materialised as %d bytes, want the 1 GiB default", spec.Tasks[0].MemFootprint)
	}
}

// GIVEN the protocol's bounds WHEN a job sits exactly on them THEN it is
// admitted, and what is queued is the spec the engine validates: MaxJobTasks
// tasks whose serial work is as long as the engine's horizon is far, or one
// task that long. A millisecond more per task is refused. (Driven through
// admit on a daemon whose queue the engine does not read: running ten
// thousand k-means processes is not what this pins.)
func TestAdmissionBoundsAreInclusive(t *testing.T) {
	horizonMS := yarn.Horizon.Milliseconds()
	for _, tc := range []struct {
		name  string
		tasks int
		ms    int64
	}{
		{"MaxJobTasks tasks, together as long as the horizon", MaxJobTasks, horizonMS / MaxJobTasks},
		{"one task as long as the horizon", 1, horizonMS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := bareDaemon(t, Config{QueueSize: 1})
			over := d.admit(&JobRequest{Priority: 11, Tasks: tc.tasks, DurationMS: tc.ms + 1, MemFootprintBytes: cluster.GiB(2)})
			if over.OK || over.RetryAfterMS != 0 || !strings.Contains(over.Error, "horizon") {
				t.Fatalf("job a millisecond a task over the horizon: %+v, want a hard rejection naming it", over)
			}
			resp := d.admit(&JobRequest{Priority: 11, Tasks: tc.tasks, DurationMS: tc.ms, MemFootprintBytes: cluster.GiB(2)})
			if !resp.OK {
				t.Fatalf("job on the admission bounds rejected: %+v", resp)
			}
			spec := <-d.queue
			if err := spec.Validate(); err != nil {
				t.Fatalf("queued spec fails the engine's validation: %v", err)
			}
			if len(spec.Tasks) != tc.tasks || spec.Tasks[tc.tasks-1].ID.Index != int32(tc.tasks-1) {
				t.Errorf("queued spec has %d tasks, last index %d", len(spec.Tasks), spec.Tasks[len(spec.Tasks)-1].ID.Index)
			}
			if got := spec.Tasks[0].Duration; got <= 0 || got.Milliseconds() != tc.ms {
				t.Errorf("duration %dms materialised as %v", tc.ms, got)
			}
		})
	}
}

// GIVEN a full admission queue WHEN further jobs are refused with a
// retry-after THEN each gives back the horizon reservation admission made for
// it: with the one queued job released too, a job as long as the whole
// horizon still fits, which one leaked millisecond would prevent.
func TestQueueFullGivesItsReservationBack(t *testing.T) {
	d := bareDaemon(t, Config{QueueSize: 1})
	small := &JobRequest{Priority: 11, Tasks: 3, DurationMS: 1000}
	first := d.admit(small)
	if !first.OK {
		t.Fatalf("job into an empty queue: %+v", first)
	}
	for i := 0; i < 3; i++ {
		if r := d.admit(small); r.OK || r.RetryAfterMS == 0 {
			t.Fatalf("job into a full queue: %+v, want a retry-after rejection", r)
		}
	}
	d.svc.Release(cluster.JobID(first.JobID), 0)
	whole := (&JobRequest{Priority: 11, Tasks: 1, DurationMS: 1}).spec(99)
	whole.Tasks[0].Duration = yarn.Horizon
	if err := d.svc.Reserve(&whole); err != nil {
		t.Errorf("the horizon is not whole again after three queue-full rejections: %v", err)
	}
}
