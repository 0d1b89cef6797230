// Command clusterrun executes the Facebook-derived workload on the
// mini-YARN framework under one preemption policy, printing the outcomes
// behind the paper's Figures 8-12.
//
// Usage:
//
//	clusterrun [-policy kill|checkpoint|adaptive|wait] [-storage hdd|ssd|nvm]
//	           [-parallel N]
//	           [-jobs N] [-tasks N] [-nodes N] [-slots N] [-seed S]
//	           [-fault-rpc-rate P] [-fault-crash-node dn-K] [-fault-crash-after N]
//	           [-fault-create-rate P] [-fault-torn-rate P] [-fault-seed S]
//	           [-fault-bitflip-rate P] [-fault-bitflip-max N] [-fault-truncate-rate P]
//	           [-fault-nm-crash-node N] [-fault-nm-crash-at D]
//	           [-fault-nm-partition-node N] [-fault-nm-partition-at D] [-fault-nm-partition-for D]
//	           [-fault-nm-beat-drop-rate P]
//	           [-nm-heartbeat-timeout D]
//	           [-scrub-every N]
//
// The -fault-nm-* flags exercise the compute-node fault domain: a seeded
// NodeManager crash (-fault-nm-crash-at, virtual time), an RM<->NM
// partition window that heals (-fault-nm-partition-*), and a random
// heartbeat drop rate. NodeManagers heartbeat every 10s of virtual time,
// and the RM's liveness sweep declares a node silent past
// -nm-heartbeat-timeout dead, releases its containers, and reschedules
// the lost tasks through the checkpoint degradation ladder; the report's
// schema-v4 "failures" object carries the recovery counters.
//
// The -fault-* flags inject a deterministic chaos scenario into the DFS
// and checkpoint store; the report then includes the degradation counters
// (kills after failed dumps, restore fallbacks/restarts, read failovers,
// pipeline rebuilds, re-replicated blocks). The integrity knobs flip bits
// in stored replicas (-fault-bitflip-rate, capped at -fault-bitflip-max
// replicas per block) and silently truncate checkpoint writes
// (-fault-truncate-rate); -scrub-every N runs a full integrity scrub of
// every DataNode after each N checkpoint dumps, and the report's
// "integrity" object carries the detection/repair counters.
//
// Sweep mode: -policy and -storage accept comma-separated lists; when the
// cross product has more than one combination, clusterrun runs the whole
// matrix on a bounded worker pool (-parallel, default one worker per CPU)
// and prints a canonical policy-major summary table. Per-combination
// reports land next to -report-json ("r.json" -> "r-kill-ssd.json").
// The live-endpoint flags (-metrics-addr, -trace-out) apply to single
// runs only.
//
// Observability flags:
//
//	-metrics-addr :9090   serve Prometheus text (/metrics), JSON
//	                      (/metrics.json) and net/http/pprof
//	                      (/debug/pprof/) over HTTP during the run
//	-metrics-linger 30s   keep the endpoint up after the run ends
//	-trace-out run.json   write a Chrome trace_event file (load in
//	                      Perfetto / chrome://tracing)
//	-journal-out run.pjl  write the decision-provenance journal (inspect
//	                      with cmd/explain)
//	-report-json r.json   write the machine-readable run report
//	                      (schema: docs/report.schema.json)
//
// Both -trace-out and -journal-out publish through a temp file and an
// atomic rename, so an abort mid-run never leaves a torn artifact behind.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/faults"
	"preemptsched/internal/obs"
	"preemptsched/internal/report"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clusterrun:", err)
		os.Exit(1)
	}
}

func run() error {
	policyFlag := flag.String("policy", "adaptive", "preemption policy (comma-separated list sweeps): wait|kill|checkpoint|adaptive")
	storageFlag := flag.String("storage", "nvm", "checkpoint storage (comma-separated list sweeps): hdd|ssd|nvm")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (0 = one per CPU, 1 = sequential)")
	wc := workload.DefaultFacebookConfig()
	flag.IntVar(&wc.Jobs, "jobs", wc.Jobs, "number of jobs (paper: 40)")
	flag.IntVar(&wc.TotalTasks, "tasks", wc.TotalTasks, "total tasks (paper: ~7000)")
	flag.Int64Var(&wc.Seed, "seed", wc.Seed, "workload seed")
	// The policy and storage the defaults are built with are placeholders:
	// makeRun sets each combination's own.
	base := yarn.DefaultConfig(core.PolicyAdaptive, storage.NVM)
	base.BindFlags(flag.CommandLine)
	flag.IntVar(&base.CompactChainAfter, "compact-after", 0, "merge image chains longer than this (0 = never)")
	flag.IntVar(&base.ScrubEveryNDumps, "scrub-every", 0, "run a full DataNode integrity scrub after every N checkpoint dumps (0 = never)")
	var plan faults.Plan
	plan.BindFlags(flag.CommandLine)
	flag.StringVar(&plan.CrashNode, "fault-crash-node", "", "DataNode (e.g. dn-1) that crashes permanently")
	flag.IntVar(&plan.CrashAfterWrites, "fault-crash-after", 0, "block writes the crash node accepts before dying")
	flag.Float64Var(&plan.BitFlipRate, "fault-bitflip-rate", 0, "probability a stored block replica gets a flipped bit")
	flag.IntVar(&plan.BitFlipMaxPerBlock, "fault-bitflip-max", 0, "max replicas of one block that may be bit-flipped (0 = default 1, a strict minority under 3-way replication)")
	flag.Float64Var(&plan.SilentTruncateRate, "fault-truncate-rate", 0, "probability a checkpoint write is silently truncated (write still reports success)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text and JSON metrics, and net/http/pprof, on this HTTP address (e.g. :9090)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the metrics endpoint alive this long after the run ends")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the run")
	journalOut := flag.String("journal-out", "", "write the decision-provenance journal to this file (read with cmd/explain)")
	reportJSON := flag.String("report-json", "", "write the machine-readable run report to this file")
	flag.Parse()

	policies, err := parsePolicies(*policyFlag)
	if err != nil {
		return err
	}
	kinds, err := parseKinds(*storageFlag)
	if err != nil {
		return err
	}

	// makeRun builds one combination's workload, config, and fault plan.
	// Everything is constructed fresh per call — the framework writes
	// through its job specs and fault injectors, so concurrent sweep
	// combinations must not share them.
	makeRun := func(policy core.Policy, kind storage.Kind) (yarn.Config, []cluster.JobSpec, error) {
		jobSpecs, err := workload.Facebook(wc)
		if err != nil {
			return yarn.Config{}, nil, err
		}
		cfg := base
		cfg.Policy, cfg.StorageKind = policy, kind
		if plan.Injects() {
			p := plan
			cfg.Faults = &p
		}
		return cfg, jobSpecs, nil
	}

	if len(policies)*len(kinds) > 1 {
		if *metricsAddr != "" || *traceOut != "" || *journalOut != "" {
			return fmt.Errorf("-metrics-addr, -trace-out and -journal-out apply to single runs, not sweeps")
		}
		return runSweepMode(os.Stdout, sweepSpecs(policies, kinds), *parallel, makeRun, *reportJSON)
	}

	policy, kind := policies[0], kinds[0]
	cfg, jobSpecs, err := makeRun(policy, kind)
	if err != nil {
		return err
	}

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.DefaultTracerCapacity)
		cfg.Tracer = tracer
	}
	var rec *obs.Recorder
	if *journalOut != "" {
		rec = obs.NewRecorder(0, 0)
		cfg.Observer = rec
	}
	if *metricsAddr != "" {
		addr, stop, err := obs.ServeMetrics(*metricsAddr, reg, "preemptsched")
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer stop()
		fmt.Printf("metrics: http://%s/metrics (text), /metrics.json (JSON), /debug/pprof/\n", addr)
	}

	total := 0
	for i := range jobSpecs {
		total += len(jobSpecs[i].Tasks)
	}
	fmt.Printf("running %d jobs (%d tasks) on %d nodes x %d containers, policy=%v storage=%s\n",
		len(jobSpecs), total, cfg.Nodes, cfg.ContainersPerNode, policy, kind)

	start := time.Now()
	r, runErr := yarn.Run(cfg, jobSpecs)
	if r == nil {
		return runErr
	}
	// An aborted run still emits its trace, report, and metrics — the
	// telemetry of a failed run is exactly what post-mortems need — but the
	// process exits nonzero so harnesses notice.
	if *traceOut != "" {
		if err := writeTrace(tracer, *traceOut); err != nil {
			return err
		}
		fmt.Printf("trace:   %s (%d spans, %d dropped)\n", *traceOut, tracer.Len(), tracer.Dropped())
	}
	if *journalOut != "" {
		if err := rec.SaveTo(*journalOut); err != nil {
			return fmt.Errorf("journal-out: %w", err)
		}
		fmt.Printf("journal: %s (%d records kept, %d dropped)\n", *journalOut, rec.Retained(), rec.Dropped())
	}
	if *reportJSON != "" {
		if err := writeReport(*reportJSON, r, runErr); err != nil {
			return err
		}
		fmt.Printf("report:  %s\n", *reportJSON)
	}
	if runErr != nil {
		if *metricsLinger > 0 {
			fmt.Printf("metrics endpoint lingering %v\n", *metricsLinger)
			linger(*metricsLinger)
		}
		return fmt.Errorf("run aborted: %w", runErr)
	}
	fmt.Printf("emulated %v of cluster time in %v\n\n", r.Makespan.Round(time.Second), time.Since(start).Round(time.Millisecond))

	fmt.Printf("wasted CPU:      %.2f core-hours (%.1f%% of usage)\n", r.WastedCPUHours, 100*r.WasteFraction())
	fmt.Printf("energy:          %.2f kWh\n", r.EnergyKWh)
	fmt.Printf("response (mean): low %.0fs, high %.0fs\n",
		r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandProduction))
	fmt.Printf("preemptions:     %d (kills %d, checkpoints %d of which %d incremental, %d pre-copy)\n",
		r.Preemptions, r.Kills, r.Checkpoints, r.IncrementalCheckpoints, r.PreCopies)
	fmt.Printf("restores:        %d (%d remote, %d failed attempts, %d fell back to older image, %d restarted), compactions %d\n",
		r.Restores, r.RemoteRestores, r.RestoreFailures, r.RestoreFallbacks, r.RestoreRestarts, r.Compactions)
	fmt.Printf("degradation:     %d dumps failed -> %d kill fallbacks\n", r.DumpFailures, r.FallbackKills)
	if r.NodeFailures > 0 || r.TasksRescheduled > 0 {
		fmt.Printf("node failures:   %d declared dead (%d recovered), %d tasks rescheduled (%d from image, %d restarted), %.2f core-hours lost\n",
			r.NodeFailures, r.NodeRecoveries, r.TasksRescheduled, r.FailureRestores, r.FailureRestarts, r.FailureWasteHours)
	}
	m := r.Metrics
	fmt.Printf("dfs resilience:  %d retries, %d read failovers, %d pipeline rebuilds, %d blocks re-replicated (%d lost)\n",
		m.Counter("dfs.client.retries"), m.Counter("dfs.client.read.failovers"), m.Counter("dfs.client.pipeline.rebuilds"),
		m.Counter("dfs.namenode.blocks.recovered"), m.Counter("dfs.namenode.blocks.lost"))
	fmt.Printf("integrity:       %d corrupt reads, %d replicas quarantined (%d re-replicated, %d degraded, %d lost), %d verify failures\n",
		m.Counter("dfs.client.corrupt.reads"), m.Counter("dfs.namenode.replicas.quarantined"),
		m.Counter("dfs.namenode.corrupt.rereplicated"), m.Counter("dfs.namenode.corrupt.degraded"),
		m.Counter("dfs.namenode.corrupt.lost"), m.Counter("checkpoint.verify.failures"))
	if runs := m.Counter("dfs.scrub.runs"); runs > 0 {
		fmt.Printf("scrubbing:       %d runs checked %d blocks, found %d corrupt (%d left after final sweep)\n",
			runs, m.Counter("dfs.scrub.blocks.checked"), m.Counter("dfs.scrub.corrupt.found"), r.FinalScrubCorrupt)
	}
	var modes []string
	for name := range m.Counters {
		if mode, ok := strings.CutPrefix(name, "faults.injected."); ok {
			modes = append(modes, mode)
		}
	}
	if len(modes) > 0 {
		sort.Strings(modes)
		fmt.Printf("faults injected:")
		for _, mode := range modes {
			fmt.Printf(" %s=%d", mode, m.Counter("faults.injected."+mode))
		}
		fmt.Println()
	}
	fmt.Printf("overheads:       CPU %.2f%%, I/O %.2f%%\n",
		100*r.CPUOverheadFraction(), 100*r.IOOverheadFraction())
	fmt.Printf("checkpoint data: peak %.1f GiB logical, %.1f MiB real bytes in DFS\n",
		float64(r.PeakImageBytes)/float64(cluster.GiB(1)), float64(r.DFSStoredBytes)/float64(cluster.MiB(1)))

	fmt.Println("\nresponse-time CDF (all jobs):")
	for _, pt := range r.JobResponseAllSec.CDF(10) {
		fmt.Printf("  %3.0f%%  %7.0fs\n", 100*pt.F, pt.X)
	}
	if *metricsLinger > 0 {
		fmt.Printf("\nmetrics endpoint lingering %v\n", *metricsLinger)
		linger(*metricsLinger)
	}
	return nil
}

// linger keeps the metrics endpoint alive for d so a scraper can collect
// the final run's series, returning early on SIGINT/SIGTERM instead of
// making the operator ride out the full wait.
func linger(d time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	_ = core.Sleep(ctx, d)
}

func writeTrace(tracer *obs.Tracer, path string) error {
	if err := obs.WriteFileAtomic(path, tracer.WriteChromeTrace); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// writeReport writes the run report; docs/report.schema.json is its
// contract and cmd/reportcheck validates instances against it.
func writeReport(path string, r *yarn.Result, runErr error) error {
	return report.New(r, runErr).WriteFile(path)
}
