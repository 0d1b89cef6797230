// Command densityrun drives the scheduler density suite: seeded synthetic
// workloads at 1k/5k/10k virtual nodes and up to ~1M task events, reporting
// sustained scheduling decisions/sec, tasks in flight, and rate-over-time
// samples. It is the one-command reproduction path for BENCH_scale.json.
//
// The standard ladder:
//
//	densityrun                         # 1k/5k/10k cells, timing included
//	densityrun -cells 1k               # just the small cell
//	densityrun -stable                 # deterministic fields only (byte-identical at any -parallel)
//
// A custom single cell:
//
//	densityrun -nodes 2000 -tasks 200000 -seed 7 -policy adaptive -storage nvm
//
// Profiling the event loop under load:
//
//	densityrun -cells 10k -pprof-addr :6060     # live pprof while the cell runs
//	densityrun -cells 10k -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched/density"
	"preemptsched/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "densityrun:", err)
		os.Exit(1)
	}
}

func run() error {
	cellsFlag := flag.String("cells", "", "comma-separated standard cells to run (1k, 5k, 10k); empty with no -nodes runs all three")
	nodes := flag.Int("nodes", 0, "custom cell: virtual node count (overrides -cells)")
	tasks := flag.Int("tasks", 0, "custom cell: task-event count (default 100x nodes)")
	jobs := flag.Int("jobs", 0, "custom cell: job count (default tasks/250)")
	seed := flag.Int64("seed", 1, "generator seed")
	policy := flag.String("policy", "checkpoint", "preemption policy: wait, kill, checkpoint, adaptive")
	storageKind := flag.String("storage", "ssd", "checkpoint device: hdd, ssd, nvm, nvram")
	load := flag.Float64("load", 0, "offered load over cluster capacity (default 1.2)")
	sampleEvery := flag.Duration("sample-every", 0, "virtual-clock sampling period (default 30s)")
	parallel := flag.Int("parallel", 1, "cells run concurrently (0 = one per CPU); each cell stays single-threaded")
	stable := flag.Bool("stable", false, "print only the deterministic fields (byte-identical at every -parallel level)")
	jsonOut := flag.String("json", "", "also write the full results as JSON to this path ('-' for stdout)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this HTTP address while cells run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this path")
	flag.Parse()

	if *pprofAddr != "" {
		addr, stop, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "densityrun: pprof on http://%s/debug/pprof/\n", addr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cells, err := pickCells(*cellsFlag, *nodes, *tasks, *jobs, *seed)
	if err != nil {
		return err
	}
	pol, err := core.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	kind, err := storage.ParseKind(*storageKind)
	if err != nil {
		return err
	}
	for i := range cells {
		cells[i].Policy = pol
		cells[i].Storage = kind
		if *load > 0 {
			cells[i].LoadFactor = *load
		}
		if *sampleEvery > 0 {
			cells[i].SampleEvery = *sampleEvery
		}
	}

	start := time.Now()
	results, err := density.RunCells(cells, *parallel)
	if err != nil {
		return err
	}
	if *stable {
		for _, r := range results {
			r.Timing = nil
		}
	}
	density.Render(os.Stdout, results, !*stable)
	if !*stable {
		fmt.Printf("total wall time %.2fs across %d cells (GOMAXPROCS=%d, -parallel=%d)\n",
			time.Since(start).Seconds(), len(results), runtime.GOMAXPROCS(0), *parallel)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// pickCells resolves the cell list: a custom single cell when -nodes is
// given, otherwise the named subset of the standard ladder.
func pickCells(names string, nodes, tasks, jobs int, seed int64) ([]density.Spec, error) {
	if nodes > 0 {
		if tasks == 0 {
			tasks = 100 * nodes
		}
		return []density.Spec{{
			Name:  fmt.Sprintf("custom-%dn", nodes),
			Seed:  seed,
			Nodes: nodes,
			Tasks: tasks,
			Jobs:  jobs,
		}}, nil
	}
	all := density.StandardCells(seed)
	if names == "" {
		return all, nil
	}
	byName := map[string]density.Spec{
		"1k":  all[0],
		"5k":  all[1],
		"10k": all[2],
	}
	var out []density.Spec
	for _, n := range strings.Split(names, ",") {
		sp, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown cell %q (want 1k, 5k, 10k)", n)
		}
		out = append(out, sp)
	}
	return out, nil
}
