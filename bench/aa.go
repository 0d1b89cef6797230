package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance check computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runAA is the A/A check: it runs each workload k times on one seed, and
// for every end-to-end metric prints the median, the quartiles, their
// distance as a share of the median, and how much worse the second half
// of the runs reads than the first — the two quantities that must stay
// inside the metric's bound for the benchmark to tell a change from
// noise. The exact counts must be identical in every run. It reports
// whether every workload passed.
func runAA(out io.Writer, ws []workload, o runOpts, k int) bool {
	o.trace = false
	pass := true
	for _, w := range ws {
		vals := make(map[string][]float64)
		var exact0 map[string]float64
		for i := 0; i < k; i++ {
			rp, err := run(w, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return false
			}
			if !rp.correct() {
				fmt.Fprintf(out, "%s run %d: %d of %d ops failed\n", w.name, i, rp.failed, rp.ops)
				pass = false
			}
			if exact0 == nil {
				exact0 = rp.exact
			} else if !reflect.DeepEqual(rp.exact, exact0) {
				fmt.Fprintf(out, "%s run %d: exact counts %v differ from run 0's %v\n", w.name, i, rp.exact, exact0)
				pass = false
			}
			for _, d := range endToEnd {
				vals[d.name] = append(vals[d.name], rp.e2e[d.name])
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d: %d ops, throughput %.4g/s, p50 %.4g ms\n",
				w.name, i+1, k, rp.ops, rp.e2e["throughput_per_s"], rp.e2e["latency_ms_p50"])
		}
		fmt.Fprintf(out, "%s (%d runs, seed %d)\n", w.name, k, o.seed)
		fmt.Fprintf(out, "  %-18s %12s %12s %12s %8s %8s %7s\n", "metric", "median", "q1", "q3", "iqr%", "halves%", "bound%")
		for _, d := range endToEnd {
			xs := vals[d.name]
			med := median(xs)
			q1, q3 := quartiles(xs)
			spread := 100 * ratio(q3-q1, med)
			// worse is how far the second half's median lies on the wrong
			// side of the first half's, as a share of the first.
			a, b := median(xs[:k/2]), median(xs[k/2:])
			worse := 100 * ratio(b-a, a)
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if k >= 2 && (spread > 100*d.bound || worse > 100*d.bound) {
				verdict = "  OUTSIDE BOUND"
				// setup_s is held to the second criterion only.
				if d.name != "setup_s" || worse > 100*d.bound {
					pass = false
				}
			}
			fmt.Fprintf(out, "  %-18s %12.6g %12.6g %12.6g %8.2f %+8.2f %7.1f%s\n",
				d.name, med, q1, q3, spread, worse, 100*d.bound, verdict)
		}
	}
	return pass
}
