// Command bench is the repository's benchmark: five closed-loop workloads
// run against the repo's exported functions, five end-to-end metrics per
// workload, and a traced run of the same workloads that yields the
// per-layer ladder. README.md defines every workload and metric.
//
//	bash bench/run.sh --workload sim-density --seed 21 --seconds 20 --trace 0
//	bash bench/run.sh --aa 6
//
// The last line of standard output is the run's result as one JSON
// object; everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"preemptsched/internal/core"
)

// workloads is the benchmark, in the order -aa runs it. The why strings
// are BENCHMARK.json's.
var workloads = []workload{
	simWorkload("sim-density",
		"basic checkpoint policy at 1k nodes / 50k tasks: sim + sched hot path only, no real bytes move",
		1000, 50_000, 100, 2_500, core.PolicyCheckpoint),
	simWorkload("sim-adaptive",
		"same two layers under the paper's adaptive policy: Alg. 1, cost-aware eviction and Alg. 2 dominate",
		100, 5_000, 12, 800, core.PolicyAdaptive),
	yarnWorkload("yarn-batch",
		"contended Facebook mix through the RM/AM/NM path with real k-means processes on the in-process DFS"),
	ckptWorkload("ckpt-dfs",
		"the suspend-dump-restore round trip through checkpoint.Engine and a DFS over real TCP/gob; no scheduler"),
	svcWorkload("service-stream",
		"two connections stream jobs into an in-process clusterd daemon: wire, admission, dispatcher, service loop"),
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultOf selects the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. A per-layer metric the workload has
// no value for reads 0: its layer was idle.
func resultOf(rp *report, traced bool) (result, error) {
	defs, vals := endToEnd, rp.e2e
	if traced {
		defs, vals = perLayer, rp.layer
	}
	res := result{Correct: rp.correct(), Attempted: rp.ops, Failed: rp.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", rp.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (with -aa: the only one to run; default all)")
		seed     = flag.Int64("seed", baseSeed, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
		scale    = flag.String("scale", "full", "full, or smoke for every workload at about 1/20 size")
		aa       = flag.Int("aa", 0, "run each workload this many times and compare the two halves of the runs")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*scale != "full" && *scale != "smoke") || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := runOpts{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		smoke:  *scale == "smoke",
		trace:  *trace == 1,
	}
	fmt.Fprintf(os.Stderr, "bench: %s %s/%s, %d CPUs, GOMAXPROCS %d for the run\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), min(runtime.NumCPU(), 2))

	if *aa > 0 {
		ws := workloads
		if *name != "" {
			w, ok := findWorkload(*name)
			if !ok {
				fatalf("unknown workload %q", *name)
			}
			ws = []workload{w}
		}
		if !runAA(os.Stdout, ws, o, *aa) {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown workload %q", *name)
	}
	if o.trace {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
		}
	}
	rp, err := run(w, o)
	if err != nil {
		fatalf("%v", err)
	}
	res, err := resultOf(rp, o.trace)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d ops (%d traced), %d failed\n", w.name, o.seed, rp.ops, rp.traced, rp.failed)
	if o.traceOut != "" {
		fmt.Fprintf(os.Stderr, "bench: trace written to %s\n", o.traceOut)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
