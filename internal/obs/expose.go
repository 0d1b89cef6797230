package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sanitizeMetricName maps a free-form dotted metric name onto the
// Prometheus name charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format. namespace, when non-empty, prefixes every metric name
// ("<namespace>_<name>"). Output is sorted by metric name, so it is
// stable for golden tests and clean diffs between scrapes.
func WritePrometheus(w io.Writer, snap Snapshot, namespace string) error {
	full := func(name string) string {
		n := sanitizeMetricName(name)
		if namespace == "" {
			return n
		}
		return sanitizeMetricName(namespace) + "_" + n
	}

	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", full(n), full(n), snap.Counters[n]); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", full(n), full(n), formatFloat(snap.Gauges[n])); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	bounds := BucketBounds()
	for _, n := range names {
		h := snap.Histograms[n]
		fn := full(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fn); err != nil {
			return err
		}
		var cum uint64
		for i := 0; i < len(h.Buckets); i++ {
			cum += h.Buckets[i]
			le := "+Inf"
			if i < len(bounds) {
				le = formatFloat(bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", fn, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", fn, formatFloat(h.Sum), fn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// histJSON is the JSON view of a histogram: raw state plus derived
// quantiles so consumers need no bucket math.
type histJSON struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []uint64 `json:"buckets"`
}

// WriteJSON renders a snapshot as one JSON object with counters, gauges,
// and histograms (each histogram annotated with p50/p95/p99).
func WriteJSON(w io.Writer, snap Snapshot) error {
	hists := make(map[string]histJSON, len(snap.Histograms))
	for n, h := range snap.Histograms {
		hists[n] = histJSON{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			Buckets: h.Buckets,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Counters   map[string]int64    `json:"counters"`
		Gauges     map[string]float64  `json:"gauges"`
		Histograms map[string]histJSON `json:"histograms"`
	}{snap.Counters, snap.Gauges, hists})
}

// Handler serves the registry over HTTP: Prometheus text at /metrics, the
// JSON view at /metrics.json, and the net/http/pprof handlers under
// /debug/pprof/, so one listener covers a process's metrics and profiles.
// The handlers live on a private mux: importing obs does not pollute
// http.DefaultServeMux. A nil registry serves empty snapshots.
func (r *Registry) Handler(namespace string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, r.Snapshot(), namespace)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMetrics starts an HTTP server for the registry on addr in a
// background goroutine and returns the bound address (useful with ":0")
// and a stop function that closes the server and waits for the serve
// goroutine to exit.
func ServeMetrics(addr string, r *Registry, namespace string) (string, func(), error) {
	return serveBackground(addr, r.Handler(namespace))
}

// ServeOps starts a daemon's operations endpoint on addr: everything
// Handler serves (metrics, and pprof for heap/goroutine deltas), liveness
// at /healthz (200 while the process serves), readiness at /readyz (503
// once ready reports false — a draining daemon stops being ready long
// before it stops being alive), and the registry's SLO view at /slo (the
// two ratios and the percentiles are derived per request from the series
// /metrics carries). One stoppable server covers everything a soak
// harness scrapes.
func ServeOps(addr string, r *Registry, namespace string, ready func() bool) (string, func(), error) {
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler(namespace))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	slo := r.SLO()
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(slo.Snapshot())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ready != nil && !ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return serveBackground(addr, mux)
}

// serveBackground binds addr, serves handler on a tracked goroutine, and
// returns the bound address plus a stop function that closes the server
// and waits for the goroutine — no serve loop outlives its owner.
func serveBackground(addr string, handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	stop := func() {
		_ = srv.Close()
		wg.Wait()
	}
	return ln.Addr().String(), stop, nil
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the tracer's retained spans as a Chrome
// trace_event JSON document loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Span PID/TID strings become numbered tracks with
// process_name/thread_name metadata, so the UI shows "node-3" lanes with
// one row per task.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Snapshot()

	type track struct{ pid, tid int }
	pids := make(map[string]int)
	tids := make(map[string]track)
	var events []chromeEvent
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	for _, s := range spans {
		pid, ok := pids[s.PID]
		if !ok {
			pid = len(pids) + 1
			pids[s.PID] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": s.PID},
			})
		}
		key := s.PID + "\x00" + s.TID
		tr, ok := tids[key]
		if !ok {
			tr = track{pid: pid, tid: len(tids) + 1}
			tids[key] = tr
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: tr.tid,
				Args: map[string]any{"name": s.TID},
			})
		}
		// Every event carries its own span id so parent_span references
		// resolve within the file.
		args := make(map[string]any, len(s.Attrs)+2)
		args["span"] = uint64(s.ID)
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		if s.Parent != 0 {
			args["parent_span"] = uint64(s.Parent)
		}
		ev := chromeEvent{
			Name: s.Name, Cat: s.Cat, PID: pid, TID: tr.tid,
			TS: micros(s.Start), Args: args,
		}
		if s.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			dur := 0.0
			if s.End > s.Start {
				dur = micros(s.End - s.Start)
			}
			ev.Dur = &dur
		}
		events = append(events, ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
