package clusterd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/obs"
	"preemptsched/internal/yarn"
)

// requestSeeds are byte streams a daemon connection might carry: canonical
// requests, requests the engine refuses, malformed input, and several values
// on one line.
var requestSeeds = []string{
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
}

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
	for _, seed := range requestSeeds {
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

// serveConnReference is the connection loop serveConn replaced, verbatim:
// encoding/json decodes every request and encodes every answer.
func (d *Daemon) serveConnReference(conn io.ReadWriter) {
	in := &io.LimitedReader{R: conn}
	dec := json.NewDecoder(in)
	enc := json.NewEncoder(conn)
	for {
		in.N = MaxRequestBytes
		var req Request
		if err := dec.Decode(&req); err != nil {
			if in.N <= 0 { // the budget ran out, not the peer
				_ = enc.Encode(&Response{
					Error: fmt.Sprintf("clusterd: request longer than %d bytes", MaxRequestBytes),
					State: d.stateNow(),
				})
			}
			return
		}
		resp := d.handle(&req)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// served is what one connection handler made of one byte stream.
type served struct {
	answers []byte
	queued  []cluster.JobSpec
	read    int // bytes taken from the stream when the handler returned
	lastID  int64
}

// serveOnce runs serve over data on a fresh daemon around svc whose job IDs
// start after firstID, feeding the stream through feed, and gives back every
// reservation admission made so svc is as it was.
func serveOnce(svc *yarn.Service, firstID int64, data []byte, feed func(io.Reader) io.Reader,
	serve func(*Daemon, io.ReadWriter)) served {
	d := daemonOn(svc, Config{QueueSize: 8, RetryAfter: time.Millisecond})
	d.nextID.Store(firstID)
	src := &countingReader{r: bytes.NewReader(data)}
	var out bytes.Buffer
	serve(d, struct {
		io.Reader
		io.Writer
	}{feed(src), &out})
	s := served{answers: out.Bytes(), read: src.n, lastID: d.nextID.Load()}
	for n := len(d.queue); n > 0; n-- {
		spec := <-d.queue
		svc.Release(spec.ID, 0)
		s.queued = append(s.queued, spec)
	}
	return s
}

// sameAnswers reports whether two answer streams are byte-identical but for
// the runtime gauges a stats answer samples (goroutines, heap, admission
// latency), which two daemons cannot share.
func sameAnswers(a, b []byte) bool {
	norm := func(s []byte) []byte {
		var out []byte
		for _, line := range bytes.SplitAfter(s, []byte("\n")) {
			var resp Response
			if json.Unmarshal(line, &resp) == nil && resp.Stats != nil {
				resp.Stats.Goroutines, resp.Stats.HeapBytes, resp.Stats.AdmissionP99Sec = 0, 0, 0
				line, _ = appendResponse(nil, &resp)
			}
			out = append(out, line...)
		}
		return out
	}
	return bytes.Equal(norm(a), norm(b))
}

// FuzzServeConnMatchesReference holds the hand-parsed connection loop to
// the json.Decoder loop it replaced:
//
// GIVEN arbitrary bytes on a connection WHEN serveConn and the reference
// loop each serve them on a fresh daemon THEN the answer streams are
// byte-identical, the same specs are queued under the same IDs, and both
// stop at the same point: fed one byte per read, each has taken the same
// bytes from the stream when it returns.
//
// Fed whole, the two loops read ahead by different amounts (their buffers
// differ), and the byte budget charges a request for what its reads take
// from the connection, read-ahead included. So where a request within a
// buffer of MaxRequestBytes lands depends on read sizes, for the reference
// loop as much as for serveConn; whole feeds are compared below that
// length, byte-at-a-time feeds, where neither loop reads ahead, at any.
func FuzzServeConnMatchesReference(f *testing.F) {
	for _, seed := range requestSeeds {
		f.Add([]byte(seed))
	}
	// Canonical requests on either side of one the hand parser refuses.
	f.Add([]byte(`{"op":"ping"}` + "\n" +
		`{"op":"submit","job":{"priority":11,"tasks":2,"duration_ms":1000,"user":"a"}}` + "\n" +
		`{"op":"submit", "job":{"priority":3,"tasks":1,"duration_ms":1000}}` + "\n" +
		`{"op":"submit","job":{"priority":4,"tasks":1,"duration_ms":1000,"mem_footprint_bytes":-1}}` + "\n" +
		`{"op":"ping"}` + "\n"))
	f.Add([]byte(`{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":1000,"mem_footprint_bytes":0}}` +
		"\r\n\t " + `{"op":"stats"}{"op":"submit","job":{"priority":1,"tasks":1,"duration_ms":01}}`))

	newService := func() *yarn.Service {
		svc, err := yarn.NewService(testConfig().Cluster, make(chan cluster.JobSpec), 1, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { svc.Close() })
		return svc
	}
	// A service books every ID it has seen, so the daemons of later inputs
	// number their jobs after every earlier one.
	svc, refSvc := newService(), newService()
	var lastID int64
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, feed := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"byte at a time", iotest.OneByteReader},
		} {
			if feed.name == "whole" && len(data) >= MaxRequestBytes {
				continue
			}
			got := serveOnce(svc, lastID, data, feed.wrap, (*Daemon).serveConn)
			want := serveOnce(refSvc, lastID, data, feed.wrap, (*Daemon).serveConnReference)
			lastID = max(got.lastID, want.lastID)
			if !sameAnswers(got.answers, want.answers) {
				t.Fatalf("%s: answers differ\n got %q\nwant %q", feed.name, got.answers, want.answers)
			}
			if !reflect.DeepEqual(got.queued, want.queued) {
				t.Fatalf("%s: queued %d specs, reference %d, or they differ", feed.name, len(got.queued), len(want.queued))
			}
			if feed.name != "whole" && got.read != want.read {
				t.Fatalf("%s: returned after reading %d bytes, reference after %d", feed.name, got.read, want.read)
			}
		}
	})
}

// TestServeConnByteAtATime: GIVEN a stream of canonical requests with one
// the hand parser refuses in the middle WHEN it is fed whole, one byte per
// read, and with a canonical request straddling the end of the connection's
// read buffer THEN each feed gets the reference loop's answers byte for byte
// and queues the same jobs, and the hand parser takes every request
// before the refused one — the straddling one included — and none after.
func TestServeConnByteAtATime(t *testing.T) {
	canonical := func(i int) string {
		return string(appendRequest(nil, &Request{Op: "submit", Job: &JobRequest{
			Priority: i % 12, Tasks: 1 + i%3, DurationMS: 1000, MemFootprintBytes: int64(i%2) << 30,
			User: fmt.Sprintf("tenant-%d", i%2)}}))
	}
	var before, after strings.Builder
	for i := 0; i < 12; i++ {
		before.WriteString(canonical(i))
		after.WriteString(canonical(100 + i))
	}
	before.WriteString(`{"op":"ping"}` + "\n")
	after.WriteString(`{"op":"ping"}` + "\n")
	const refused = `{"job":{"priority":5,"tasks":1,"duration_ms":1000},"op":"submit"}` + "\n"
	straddler := canonical(50)
	// Whitespace that puts straddler across the 4 KiB mark, as the decoder
	// would skip it.
	pad := strings.Repeat(" ", connBufSize-before.Len()-len(straddler)/2-1) + "\n"

	head := before.String()
	tail := refused + after.String()
	for _, tc := range []struct {
		name string
		// stream is head, what the hand parser takes, and then tail.
		head string
		feed func(io.Reader) io.Reader
	}{
		{"whole", head, func(r io.Reader) io.Reader { return r }},
		{"one byte per read", head, iotest.OneByteReader},
		{"straddling the buffer", head + pad + straddler, func(r io.Reader) io.Reader { return r }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stream := []byte(tc.head + tail)
			got := serveOnce(bareDaemon(t, Config{}).svc, 0, stream, tc.feed, (*Daemon).serveConn)
			want := serveOnce(bareDaemon(t, Config{}).svc, 0, stream, tc.feed, (*Daemon).serveConnReference)
			if !bytes.Equal(got.answers, want.answers) {
				t.Fatalf("answers differ\n got %q\nwant %q", got.answers, want.answers)
			}
			requests := strings.Count(tc.head+tail, "}\n")
			if n := bytes.Count(got.answers, []byte("\n")); n != requests {
				t.Errorf("%d answers to %d requests", n, requests)
			}
			if !reflect.DeepEqual(got.queued, want.queued) {
				t.Errorf("queued %d jobs, reference %d, or they differ", len(got.queued), len(want.queued))
			}

			// The hand parser's own share: every request before the refused one.
			br := bufio.NewReaderSize(tc.feed(strings.NewReader(tc.head+tail)), connBufSize)
			var req Request
			var job JobRequest
			parsed := 0
			for readRequest(br, &req, &job) {
				parsed++
			}
			if n := strings.Count(tc.head, "}\n"); parsed != n {
				t.Errorf("hand parser took %d requests, want the %d before the refused one", parsed, n)
			}
		})
	}
}
