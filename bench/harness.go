package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"preemptsched/internal/obs"
)

// env is what a workload's set-up is given.
type env struct {
	seed  int64
	smoke bool
	// r is non-nil on a traced run, so set-up calls record spans too.
	r *rec
}

// instance is one set-up workload: a closed loop of identical ops.
type instance interface {
	// op runs one operation and returns the workload units it completed.
	// r is nil on an untraced op.
	op(r *rec) (units int, err error)
	// check verifies the output of the last op. It runs after the op's
	// timer has stopped.
	check() error
	// counts returns the last op's exact per-layer counts: the harness
	// fails any op whose counts differ from the first warm-up op's.
	counts() map[string]float64
	// layers adds the workload's timed per-layer metrics, read from the
	// spans and busy clocks of the traced ops.
	layers(m map[string]float64, st spanStats)
	// close releases everything set-up acquired.
	close(r *rec) error
}

// workload names one closed loop and why it is in the benchmark.
type workload struct {
	name string
	why  string
	// spans bounds the spans one traced op records; it sizes the tracer.
	spans int
	// setup builds the inputs from e.seed and everything the ops run
	// against.
	setup func(e env) (instance, error)
}

const (
	// setupRounds set-ups run back to back and setup_s is their median:
	// one set-up is a single sample of a noisy clock.
	setupRounds = 3
	// warmups untimed ops close every set-up, so lazy initialisation,
	// connection dials and heap growth are paid before the window opens.
	warmups = 2
	// minOps keeps the order statistics meaningful on a box slow enough to
	// fit fewer ops in the window.
	minOps = 8
)

// report is one run's outcome. e2e and layer are both filled as far as
// the run's mode allows; main prints the one the -trace flag selects.
type report struct {
	workload string
	ops      int
	failed   int
	traced   int
	e2e      map[string]float64
	layer    map[string]float64
	exact    map[string]float64
	spans    []obs.Span
}

func (rp *report) correct() bool { return rp.failed == 0 }

type runOpts struct {
	seed     int64
	window   time.Duration
	smoke    bool
	trace    bool
	traceOut string
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run sets the workload up setupRounds times, keeps the last instance,
// runs ops on it until the window has passed, and folds the measurements
// into a report. On a traced run every second op records spans, so traced
// and untraced ops share whatever the box does during the window and
// their difference is the tracing overhead.
func run(w workload, o runOpts) (rp *report, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))

	pr := boxProbe()
	var r *rec
	if o.trace {
		r = newRec(w.name, w.spans)
	}
	e := env{seed: o.seed, smoke: o.smoke, r: r}

	var (
		inst   instance
		setups []float64
		ref    map[string]float64
	)
	closeInst := func() {
		if inst == nil {
			return
		}
		if cerr := inst.close(r); cerr != nil && err == nil {
			err = fmt.Errorf("%s: close: %w", w.name, cerr)
		}
		inst = nil
	}
	defer closeInst()
	for round := 0; round < setupRounds; round++ {
		closeInst()
		if err != nil {
			return nil, err
		}
		before := pr.run()
		t0 := time.Now()
		end := r.span("setup", "setup")
		if inst, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for i := 0; i < warmups; i++ {
			if _, err := inst.op(nil); err != nil {
				return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
			}
			if err := inst.check(); err != nil {
				return nil, fmt.Errorf("%s: warm-up op: %w", w.name, err)
			}
			if ref == nil {
				ref = inst.counts()
			} else if got := inst.counts(); !reflect.DeepEqual(got, ref) {
				return nil, fmt.Errorf("%s: warm-up op: exact counts %v differ from the first op's %v", w.name, got, ref)
			}
		}
		end()
		d := time.Since(t0)
		setups = append(setups, d.Seconds()/slowdown(before, pr.run()))
	}

	// plainMS and tracedMS are op times as measured, normMS the untraced
	// ops' at reference speed, slow every op's slowdown factor.
	var (
		plainMS, tracedMS, normMS, slow []float64
		units, failed                   int
		m0, m1                          runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	before := pr.run()
	start := time.Now()
	for i := 0; ; i++ {
		var opRec *rec
		if o.trace && i%2 == 1 && len(tracedMS) < maxTraced {
			opRec = r
		}
		t0 := time.Now()
		end := opRec.span("op", "op", obs.Int64("op", int64(i)))
		n, opErr := inst.op(opRec)
		end()
		d := time.Since(t0)
		after := pr.run()
		f := slowdown(before, after)
		before = after

		if opErr == nil {
			opErr = inst.check()
		}
		if opErr == nil {
			if got := inst.counts(); !reflect.DeepEqual(got, ref) {
				opErr = fmt.Errorf("exact counts %v differ from the first op's %v", got, ref)
			}
		}
		if opErr != nil {
			failed++
			fmt.Fprintf(os.Stderr, "bench: %s: op %d failed: %v\n", w.name, i, opErr)
		}
		units = n
		slow = append(slow, f)
		if opRec != nil {
			tracedMS = append(tracedMS, ms(d))
		} else {
			plainMS = append(plainMS, ms(d))
			normMS = append(normMS, ms(d)/f)
		}
		if done := i + 1; done >= minOps && done%2 == 0 && time.Since(start) >= o.window {
			break
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ops := len(plainMS) + len(tracedMS)
	fops := float64(ops)
	fmt.Fprintf(os.Stderr, "bench: %s: %d untraced ops, measured ms: min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g; box slowdown p50 %.3f\n", w.name, len(plainMS),
		quantile(plainMS, 0), quantile(plainMS, 0.25), median(plainMS), quantile(plainMS, 0.75), quantile(plainMS, 1), median(slow))

	rp = &report{
		workload: w.name, ops: ops, failed: failed, traced: len(tracedMS),
		exact: ref,
		e2e: map[string]float64{
			"setup_s":          median(setups),
			"throughput_per_s": float64(units) / (mean(normMS) / 1e3),
			"latency_ms_p50":   median(normMS),
			"alloc_kb_per_op":  float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / fops,
			"allocs_per_op":    float64(m1.Mallocs-m0.Mallocs) / fops,
		},
	}
	if !o.trace {
		return rp, nil
	}

	// The per-layer ladder. Timed metrics read the traced ops only; the
	// process and wall rows describe the whole window, traced ops included.
	// The instance is closed first so its shutdown spans are in the snapshot.
	last := inst
	closeInst()
	if err != nil {
		return nil, err
	}
	rp.spans = r.tr.Snapshot()
	all := append(append([]float64(nil), plainMS...), tracedMS...)
	m := map[string]float64{
		"process.cpu_ms_per_op":       ms(cpu) / fops,
		"process.gc_cycles_per_op":    float64(m1.NumGC-m0.NumGC) / fops,
		"process.gc_pause_ms_per_op":  float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / fops,
		"process.peak_heap_mib":       float64(m1.HeapSys) / (1 << 20),
		"wall.throughput_per_s_total": float64(units) * fops / wall.Seconds(),
		"wall.op_ms_p50":              median(all),
		"wall.op_ms_p90":              quantile(all, 0.90),
		"wall.op_ms_iqr_pct":          100 * ratio(quantile(all, 0.75)-quantile(all, 0.25), median(all)),
		"wall.slowdown":               median(slow),
		"trace.overhead_pct":          100 * ratio(median(tracedMS)-median(plainMS), median(plainMS)),
	}
	for k, v := range ref {
		m[k] = v
	}
	last.layers(m, analyse(rp.spans))
	microOps(m, o.smoke)
	rp.layer = m

	if dropped := r.tr.Dropped(); dropped > 0 {
		return nil, fmt.Errorf("%s: tracer dropped %d spans: raise the workload's spans", w.name, dropped)
	}
	if o.traceOut != "" {
		if err := r.write(o.traceOut); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	return rp, nil
}
