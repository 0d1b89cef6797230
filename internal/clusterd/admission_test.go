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

// GIVEN the protocol's bounds WHEN a job sits exactly on them THEN it is
// admitted, and what is queued is the spec the engine validates: MaxJobTasks
// tasks, the longest duration that converts without wrapping. (Driven
// through admit on a daemon without an engine: running ten thousand k-means
// processes is not what this pins.)
func TestAdmissionBoundsAreInclusive(t *testing.T) {
	d := &Daemon{
		cfg:         Config{}.withDefaults(),
		queue:       make(chan cluster.JobSpec, 1),
		state:       StateServing,
		outstanding: make(map[cluster.JobID]struct{}),
	}
	resp := d.admit(&JobRequest{Priority: 11, Tasks: MaxJobTasks, DurationMS: maxDurationMS, MemFootprintBytes: cluster.GiB(2)})
	if !resp.OK {
		t.Fatalf("job on the admission bounds rejected: %+v", resp)
	}
	spec := <-d.queue
	if err := spec.Validate(); err != nil {
		t.Fatalf("queued spec fails the engine's validation: %v", err)
	}
	if len(spec.Tasks) != MaxJobTasks || spec.Tasks[MaxJobTasks-1].ID.Index != MaxJobTasks-1 {
		t.Errorf("queued spec has %d tasks, last index %d", len(spec.Tasks), spec.Tasks[len(spec.Tasks)-1].ID.Index)
	}
	if got := spec.Tasks[0].Duration; got <= 0 || got.Milliseconds() != maxDurationMS {
		t.Errorf("duration %dms materialised as %v", int64(maxDurationMS), got)
	}
}
