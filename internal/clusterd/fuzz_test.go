package clusterd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/yarn"
)

// FuzzClusterdRequest holds the daemon's connection handler — the one
// decoder in the service path that reads bytes from strangers — to its
// trust-boundary contract:
//
// GIVEN arbitrary bytes arriving on a connection WHEN serveConn reads them
// THEN it does not panic; everything it answers is one JSON object per line
// carrying a state; every job it answers ok for is in the admission queue
// under that ID, passes the engine's own JobSpec.Validate, is within the
// protocol's task bound and fits the engine's horizon (admitted ⇒ runnable,
// never lost); and what one request can make the daemon allocate is bounded,
// however long its line or large its numbers.
//
// The daemon is hand-assembled around a real yarn.Service (the stats op reads
// its clock) that reads a queue nobody writes: what admission queues stays
// queued for the harness to inspect.
func FuzzClusterdRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"ping"}`,
		`{"op":"stats"}`,
		`{"op":"bogus"}`,
		`{"op":"submit"}`,
		`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000}}`,
		`{"op":"submit","job":{"priority":11,"tasks":4,"duration_ms":30000,"mem_footprint_bytes":1073741824,"user":"tenant-0"}}`,
		`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000,"mem_footprint_bytes":3221225472}}`,
		`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":4611686018427387904}}`,
		`{"op":"submit","job":{"priority":1,"tasks":99999999,"duration_ms":1000}}`,
		`{"op":"submit","job":{"priority":12,"tasks":-1,"duration_ms":0}}`,
		`{"op":"submit","job":{"tasks":1e9}}`,
		`{"op":"ping"}` + "\n" + `{"op":"submit","job":{"priority":0,"tasks":2,"duration_ms":5}}` + "\n" + `{"op":"stats"}`,
		`{"op":"ping"} {"op":"ping"}{"op":"ping"}`,
		`{"op":"submit","job":{"user":"` + strings.Repeat("u", 4096) + `"}}`,
		`[{"op":"ping"}]`,
		`{"op":`,
		"\x00\xff{}",
		"",
		// Valid by every static check, and 1.5 million years of serial work:
		// admission must refuse it for the horizon (ROADMAP proof-harness (e)).
		`{"op":"submit","job":{"priority":1,"tasks":10000,"duration_ms":4730400000000}}`,
	} {
		f.Add([]byte(seed))
	}

	cfg := testConfig()
	svc, err := yarn.NewService(cfg.Cluster, make(chan cluster.JobSpec), 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { svc.Close() })
	const queueSize = 8
	d := &Daemon{
		cfg:         Config{QueueSize: queueSize, RetryAfter: time.Millisecond}.withDefaults(),
		svc:         svc,
		queue:       make(chan cluster.JobSpec, queueSize),
		state:       StateServing,
		outstanding: make(map[cluster.JobID]struct{}),
		m:           resolveMetrics(obs.NewRegistry()),
	}
	// What one request may allocate: the decoder's buffer for a request of
	// MaxRequestBytes (it doubles as it grows), the largest spec the task
	// bound allows, and the answer.
	const perRequest = 4<<20 + 4*MaxRequestBytes

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		reqR, reqW := io.Pipe()
		respR, respW := io.Pipe()
		go func() {
			d.serveConn(struct {
				io.Reader
				io.Writer
			}{reqR, respW})
			respW.Close()
			reqR.Close()
		}()
		go func() {
			reqW.Write(data)
			reqW.Close()
		}()
		answers, err := io.ReadAll(respR)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)

		admitted := make(map[cluster.JobID]bool)
		lines := bytes.SplitAfter(answers, []byte("\n"))
		lines = lines[:len(lines)-1] // what follows the last newline: nothing, checked next
		if len(answers) > 0 && answers[len(answers)-1] != '\n' {
			t.Fatalf("answers do not end in a newline: %q", answers)
		}
		for _, line := range lines {
			var resp Response
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("answer %q is not one Response: %v", line, err)
			}
			switch resp.State {
			case StateServing, StateDraining, StateStopped:
			default:
				t.Fatalf("answer %q carries state %q", line, resp.State)
			}
			if resp.OK && resp.JobID != 0 {
				admitted[cluster.JobID(resp.JobID)] = true
			}
			if !resp.OK && resp.Error == "" {
				t.Fatalf("answer %q refuses without saying why", line)
			}
		}
		for n := len(d.queue); n > 0; n-- {
			spec := <-d.queue
			if !admitted[spec.ID] {
				t.Fatalf("job %d queued without an ok answer", spec.ID)
			}
			delete(admitted, spec.ID)
			delete(d.outstanding, spec.ID)
			// Nothing runs these jobs: give their work back, or one long job
			// would have every later input refused for the horizon.
			svc.Release(spec.ID, 0)
			if err := spec.Validate(); err != nil {
				t.Fatalf("admitted job %d fails the engine's validation: %v", spec.ID, err)
			}
			if len(spec.Tasks) > MaxJobTasks {
				t.Fatalf("admitted job %d has %d tasks", spec.ID, len(spec.Tasks))
			}
			if work := spec.TotalWork(); work <= 0 || work > yarn.Horizon {
				t.Fatalf("admitted job %d carries %v of serial work, horizon %v", spec.ID, work, yarn.Horizon)
			}
		}
		if len(admitted) != 0 {
			t.Fatalf("answered ok for jobs that are not queued: %v", admitted)
		}
		if len(d.outstanding) != 0 {
			t.Fatalf("%d jobs outstanding that were never queued", len(d.outstanding))
		}
		// One request at least per answer, and one more may have been cut off.
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(lines)+1)*perRequest; got > bound {
			t.Fatalf("%d bytes allocated serving %d requests (%d input bytes), bound %d",
				got, len(lines), len(data), bound)
		}
	})
}

// TestRequestBudgetBoundsARequest: GIVEN one request of 1 MiB without a
// newline WHEN the handler reads it THEN it answers once — a hard rejection
// naming the byte bound — stops reading, and has held no more than a few
// multiples of MaxRequestBytes.
func TestRequestBudgetBoundsARequest(t *testing.T) {
	d := &Daemon{state: StateServing}
	huge := []byte(`{"op":"submit","job":{"user":"` + strings.Repeat("u", 1<<20))
	in := &countingReader{r: bytes.NewReader(huge)}
	var out bytes.Buffer
	d.serveConn(struct {
		io.Reader
		io.Writer
	}{in, &out})
	var resp Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("answer %q: %v", out.String(), err)
	}
	if resp.OK || resp.RetryAfterMS != 0 || !strings.Contains(resp.Error, fmt.Sprint(MaxRequestBytes)) || resp.State != StateServing {
		t.Errorf("answer = %+v, want a hard rejection naming the %d-byte bound", resp, MaxRequestBytes)
	}
	if in.n > MaxRequestBytes {
		t.Errorf("handler read %d bytes of one request, bound %d", in.n, MaxRequestBytes)
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
