package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched/density"
)

// runDensity runs density cells: the standard 1k/5k/10k ladder (or the
// cells -cells names), or one custom cell sized by -nodes.
func runDensity(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments density", flag.ContinueOnError)
	cellsFlag := fs.String("cells", "", "comma-separated standard cells to run (1k, 5k, 10k); empty with no -nodes runs all three")
	nodes := fs.Int("nodes", 0, "custom cell: virtual node count (overrides -cells)")
	tasks := fs.Int("tasks", 0, "custom cell: task-event count (default 100x nodes; needs -nodes)")
	jobs := fs.Int("jobs", 0, "custom cell: job count (default tasks/250; needs -nodes)")
	seed := fs.Int64("seed", 1, "generator seed")
	var dev devicePolicy
	dev.bind(fs, "checkpoint")
	load := fs.Float64("load", 0, "offered load over cluster capacity (default 1.2)")
	sampleEvery := fs.Duration("sample-every", 0, "virtual-clock sampling period (default 30s)")
	parallel := fs.Int("parallel", 1, "cells run concurrently (0 = one per CPU); each cell stays single-threaded")
	stable := fs.Bool("stable", false, "print only the deterministic fields (byte-identical at every -parallel level)")
	jsonOut := fs.String("json", "", "also write the full results as JSON to this path ('-' for stdout, which moves the report to stderr)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this HTTP address while cells run")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this path")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	cells, err := pickCells(*cellsFlag, *nodes, *tasks, *jobs, *seed)
	if err != nil {
		return err
	}
	pol, kind, err := dev.parse()
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

	if *pprofAddr != "" {
		addr, stop, err := obs.ServeMetrics(*pprofAddr, nil, "")
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stderr, "experiments density: pprof on http://%s/debug/pprof/\n", addr)
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

	start := time.Now()
	// Each cell writes its own slot, so the results, and any rendering of
	// their deterministic fields, are byte-identical at every -parallel.
	results := make([]*density.CellResult, len(cells))
	err = core.ForEachIndex(len(cells), *parallel, func(i int) (err error) {
		results[i], err = density.Run(cells[i])
		return err
	})
	if err != nil {
		return err
	}
	if *stable {
		for _, r := range results {
			r.Timing = nil
		}
	}
	report := stdout
	if *jsonOut == "-" {
		report = stderr
	}
	density.Render(report, results, !*stable)
	if !*stable {
		fmt.Fprintf(report, "total wall time %.2fs across %d cells (GOMAXPROCS=%d, -parallel=%d)\n",
			time.Since(start).Seconds(), len(results), runtime.GOMAXPROCS(0), *parallel)
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := stdout.Write(data); err != nil {
				return err
			}
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
// given, otherwise the named subset of the standard ladder. -tasks and
// -jobs size only a custom cell, so without -nodes they are an error
// rather than silently dropped.
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
	if tasks != 0 || jobs != 0 {
		return nil, errors.New("-tasks and -jobs size a custom cell and need -nodes")
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
