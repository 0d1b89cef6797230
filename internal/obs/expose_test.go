package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"yarn.dump.total.seconds": "yarn_dump_total_seconds",
		"already_fine":            "already_fine",
		"with-dash":               "with_dash",
		"9leading":                "_leading",
		"a9ok":                    "a9ok",
	}
	for in, want := range cases {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusGolden pins the exact exposition text for a small
// snapshot: sorted names, namespace prefix, TYPE lines, and the full
// cumulative bucket series ending in +Inf.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Add("yarn.kills", 2)
	r.Inc("dfs.client.retries")
	r.SetGauge("yarn.queue.peak", 3)
	r.Observe("yarn.dump.total.seconds", 0.001)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot(), "preemptsched"); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	want.WriteString(`# TYPE preemptsched_dfs_client_retries counter
preemptsched_dfs_client_retries 1
# TYPE preemptsched_yarn_kills counter
preemptsched_yarn_kills 2
# TYPE preemptsched_yarn_queue_peak gauge
preemptsched_yarn_queue_peak 3
# TYPE preemptsched_yarn_dump_total_seconds histogram
`)
	// 0.001 s lands in bucket 10 (bound 1.024e-3): cumulative counts are 0
	// through bucket 9, then 1 for every bucket from 10 to +Inf.
	bounds := BucketBounds()
	for i, b := range bounds {
		cum := 0
		if i >= 10 {
			cum = 1
		}
		fmt.Fprintf(&want, "preemptsched_yarn_dump_total_seconds_bucket{le=%q} %d\n", formatFloat(b), cum)
	}
	want.WriteString(`preemptsched_yarn_dump_total_seconds_bucket{le="+Inf"} 1
preemptsched_yarn_dump_total_seconds_sum 0.001
preemptsched_yarn_dump_total_seconds_count 1
`)
	if buf.String() != want.String() {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", buf.String(), want.String())
	}
}

func TestWritePrometheusNoNamespace(t *testing.T) {
	r := NewRegistry()
	r.Inc("a.b")
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot(), ""); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE a_b counter\na_b 1\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Add("c", 4)
	r.SetGauge("g", 1.5)
	for i := 0; i < 10; i++ {
		r.Observe("h", 0.01)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]float64  `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON output not parseable: %v", err)
	}
	if doc.Counters["c"] != 4 || doc.Gauges["g"] != 1.5 {
		t.Fatalf("scalar round-trip wrong: %+v", doc)
	}
	h := doc.Histograms["h"]
	if h.Count != 10 || h.P50 != 0.01 || h.P99 != 0.01 {
		t.Fatalf("histogram round-trip wrong: %+v", h)
	}
	if len(h.Buckets) != HistBuckets {
		t.Fatalf("bucket count = %d, want %d", len(h.Buckets), HistBuckets)
	}
}

func TestRegistryHandler(t *testing.T) {
	r := NewRegistry()
	r.Inc("hits")
	srv := httptest.NewServer(r.Handler("preemptsched"))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "preemptsched_hits 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
}

// GIVEN ServeMetrics on a nil registry, as a process with profiles but no
// series of its own starts it,
// WHEN pprof and /metrics are fetched from its one listener,
// THEN both answer 200, and /metrics carries no series.
func TestServeMetricsServesPprof(t *testing.T) {
	addr, stop, err := ServeMetrics("127.0.0.1:0", nil, "preemptsched")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, wantBody := range map[string]bool{"/debug/pprof/cmdline": true, "/metrics": false} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || (len(body) > 0) != wantBody {
			t.Errorf("%s = %d with %d body bytes, want 200 and a body %v", path, resp.StatusCode, len(body), wantBody)
		}
	}
}

func TestServeOps(t *testing.T) {
	r := NewRegistry()
	r.Inc("hits")
	var ready atomic.Bool
	ready.Store(true)
	slo := r.SLO()
	slo.AddWaste(0.25)
	slo.AddUseful(0.75)
	slo.Count(Event{Kind: EvDecision, Name: "checkpoint-full"})
	slo.ObserveResponse("low", 3)
	addr, stop, err := ServeOps("127.0.0.1:0", r, "preemptsched", ready.Load)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz while serving = %d, want 200", code)
	}
	ready.Store(false)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/readyz while draining = %d %q, want 503 draining", code, body)
	}
	// Health stays green during a drain: the process is alive and must
	// not be restarted out from under its own shutdown.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "preemptsched_hits 1") {
		t.Errorf("/metrics = %d, missing counter:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", code)
	}
	code, body := get("/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo = %d, want 200:\n%s", code, body)
	}
	var snap SLOSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/slo not a snapshot: %v\n%s", err, body)
	}
	if snap.WasteFraction != 0.25 || snap.CheckpointDecisions != 1 {
		t.Errorf("/slo snapshot = %+v, want waste fraction 0.25 and one checkpoint decision", snap)
	}
	// /metrics carries the series /slo was derived from, typed as what they
	// are, and no mirrored ratio.
	_, metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE preemptsched_slo_decisions_checkpoint counter\npreemptsched_slo_decisions_checkpoint 1\n",
		"# TYPE preemptsched_slo_waste_core_hours gauge\npreemptsched_slo_waste_core_hours 0.25\n",
		"# TYPE preemptsched_slo_response_all_seconds histogram\n",
		"preemptsched_slo_response_all_seconds_count 1\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "slo_waste_fraction") || strings.Contains(metrics, "slo_checkpoint_hit_rate") {
		t.Errorf("/metrics carries a derived SLO ratio:\n%s", metrics)
	}
}

// TestServeOpsZeroSLO: /slo is served from the registry alone, including one
// nobody recorded into and a nil one — the fixed four bands, zero counts.
func TestServeOpsZeroSLO(t *testing.T) {
	for name, r := range map[string]*Registry{"fresh": NewRegistry(), "nil": nil} {
		addr, stop, err := ServeOps("127.0.0.1:0", r, "preemptsched", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr + "/slo")
		if err != nil {
			stop()
			t.Fatalf("%s registry: GET /slo: %v", name, err)
		}
		var snap SLOSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		stop()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s registry: /slo = %d, decode %v", name, resp.StatusCode, err)
		}
		if want := (SLO{}).Snapshot(); !reflect.DeepEqual(snap, want) {
			t.Errorf("%s registry: /slo = %+v, want the zero SLO %+v", name, snap, want)
		}
	}
}

// TestServeOpsConcurrentScrape hammers every ops route from several
// scrapers while writers mutate the registry and its SLO series — the
// race detector turns any unsynchronized path into a failure, and every
// response must stay well-formed mid-write.
func TestServeOpsConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	slo := r.SLO()
	var ready atomic.Bool
	ready.Store(true)
	addr, stop, err := ServeOps("127.0.0.1:0", r, "preemptsched", ready.Load)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	stopWriters := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				r.Inc("scrape.test.hits")
				r.SetGauge("scrape.test.gauge", float64(i))
				r.ObserveDuration("scrape.test.seconds", time.Duration(i)*time.Millisecond)
				slo.AddWaste(0.001)
				slo.AddUseful(0.002)
				slo.Count(Event{Kind: EvDecision, Name: [2]string{"checkpoint-full", "kill"}[i%2]})
				slo.ObserveResponse("high", float64(i%100))
			}
		}(g)
	}

	var scrapers sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			paths := []string{"/metrics", "/metrics.json", "/slo", "/healthz", "/readyz"}
			for i := 0; i < 20; i++ {
				p := paths[i%len(paths)]
				resp, err := http.Get("http://" + addr + p)
				if err != nil {
					errs <- fmt.Errorf("GET %s: %w", p, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", p, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s = %d", p, resp.StatusCode)
					return
				}
				switch p {
				case "/metrics.json":
					var doc map[string]any
					if err := json.Unmarshal(body, &doc); err != nil {
						errs <- fmt.Errorf("%s mid-write not JSON: %w", p, err)
						return
					}
				case "/slo":
					var snap SLOSnapshot
					if err := json.Unmarshal(body, &snap); err != nil {
						errs <- fmt.Errorf("%s mid-write not a snapshot: %w", p, err)
						return
					}
					if snap.WasteFraction < 0 || snap.WasteFraction > 1 {
						errs <- fmt.Errorf("/slo waste fraction %v outside [0,1]", snap.WasteFraction)
						return
					}
				}
			}
		}()
	}
	scrapers.Wait()
	close(stopWriters)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
