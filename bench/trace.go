package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"preemptsched/internal/obs"
)

// rec records the spans of a traced run through obs.Tracer on a
// wall-clock timebase. A nil *rec records nothing, which is what every
// untraced op is handed: the untimed path costs one pointer test.
//
// The span stack serves the single caller of the closed loop; code that
// fans out to goroutines (service-stream's two connections) records with
// child, naming the parent itself.
type rec struct {
	tr    *obs.Tracer
	epoch time.Time
	pid   string
	stack []obs.SpanID
}

// maxTraced caps the traced ops of one run. The tracer's ring is live,
// pointer-rich heap: sized for the worst case it halved the number of
// collections sim-adaptive runs per op, and the traced run read 20 %
// faster than the untraced one. Sized per workload (workload.spans per
// traced op) it is a few dozen KiB where the heap is small.
const maxTraced = 64

// setupSpans is room for the spans recorded outside ops.
const setupSpans = 64

func newRec(pid string, spansPerOp int) *rec {
	return &rec{tr: obs.NewTracer(maxTraced*spansPerOp + setupSpans), epoch: time.Now(), pid: pid}
}

func (r *rec) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

func noopEnd(...obs.Attr) {}

// span opens a child of the innermost open span; the returned func closes
// it, appending any attributes known only at the end.
func (r *rec) span(cat, name string, attrs ...obs.Attr) func(...obs.Attr) {
	if r == nil {
		return noopEnd
	}
	id := r.tr.Start(cat, name, r.pid, "op", r.top(), r.now(), attrs...)
	r.stack = append(r.stack, id)
	return func(end ...obs.Attr) {
		r.tr.End(id, r.now(), end...)
		r.stack = r.stack[:len(r.stack)-1]
	}
}

func (r *rec) top() obs.SpanID {
	if r == nil || len(r.stack) == 0 {
		return 0
	}
	return r.stack[len(r.stack)-1]
}

// child records a finished span under an explicit parent on its own
// track; safe from any goroutine.
func (r *rec) child(parent obs.SpanID, cat, name, tid string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.tr.Complete(cat, name, r.pid, tid, parent, start, end)
}

// write renders the retained spans as a Chrome trace_event file.
func (r *rec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, r.tr.WriteChromeTrace)
}

// spanStats is what the per-layer metrics read from a traced window: per
// span name, every duration and every self time, in milliseconds.
type spanStats struct {
	dur  map[string][]float64
	self map[string][]float64
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// analyse folds a tracer snapshot into per-name durations and self times.
// A span's self time is its duration minus the part of it its children
// cover; overlapping children (two connections submitting at once) are
// merged before subtracting.
func analyse(spans []obs.Span) spanStats {
	kids := make(map[obs.SpanID][]obs.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	st := spanStats{dur: make(map[string][]float64), self: make(map[string][]float64)}
	for _, s := range spans {
		d := s.End - s.Start
		st.dur[s.Name] = append(st.dur[s.Name], ms(d))
		st.self[s.Name] = append(st.self[s.Name], ms(d-covered(kids[s.ID])))
	}
	return st
}

// covered is the length of the union of the spans' intervals.
func covered(spans []obs.Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]obs.Span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
		} else if x.End > hi {
			hi = x.End
		}
	}
	return total + hi - lo
}

// checkTree verifies the invariants the ladder rests on: every child lies
// inside its parent, and per op the self times of the whole tree add up
// to the op span (they do by construction when the first holds; the
// tolerance absorbs clock reads between a child's end and its parent's).
func checkTree(spans []obs.Span) error {
	byID := make(map[obs.SpanID]obs.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	root := func(s obs.Span) obs.SpanID {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	kids := make(map[obs.SpanID][]obs.Span)
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %q still open", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d %q has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %q [%v,%v] exceeds parent %q [%v,%v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	selfSum := make(map[obs.SpanID]time.Duration)
	for _, s := range spans {
		selfSum[root(s)] += s.End - s.Start - covered(kids[s.ID])
	}
	for id, total := range selfSum {
		r := byID[id]
		d := r.End - r.Start
		if diff := d - total; diff < -d/20 || diff > d/20 {
			return fmt.Errorf("root span %d %q lasts %v but self times sum to %v", id, r.Name, d, total)
		}
	}
	return nil
}
