// Command simtrace runs the trace-driven cluster scheduling simulator
// under one preemption policy and prints the aggregate outcomes the
// paper's Figures 3 and 5 are built from.
//
// Usage:
//
//	simtrace [-policy kill|checkpoint|adaptive|wait] [-storage hdd|ssd|nvm]
//	         [-jobs N] [-tasks-per-job N] [-bandwidth GB/s] [-load F] [-seed S]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simtrace:", err)
		os.Exit(1)
	}
}

func parseDiscipline(s string) (sched.Discipline, error) {
	switch strings.ToLower(s) {
	case "priority":
		return sched.DisciplinePriority, nil
	case "fair-share", "fairshare", "fair":
		return sched.DisciplineFairShare, nil
	case "capacity":
		return sched.DisciplineCapacity, nil
	default:
		return 0, fmt.Errorf("unknown discipline %q (want priority|fair-share|capacity)", s)
	}
}

func run() error {
	policyFlag := flag.String("policy", "adaptive", "preemption policy: wait|kill|checkpoint|adaptive")
	storageFlag := flag.String("storage", "ssd", "checkpoint storage: hdd|ssd|nvm|nvram")
	disciplineFlag := flag.String("discipline", "priority", "contention arbitration: priority|fair-share|capacity")
	maxEvictions := flag.Int("max-evictions", 0, "cap preemptions per task (0 = unlimited)")
	preCopy := flag.Bool("precopy", false, "use pre-copy checkpointing (dump while the victim runs)")
	jobs := flag.Int("jobs", 1500, "number of jobs (paper one-day slice: 15000)")
	tasksPerJob := flag.Int("tasks-per-job", 8, "mean tasks per job (paper: 40)")
	bandwidth := flag.Float64("bandwidth", 0, "override storage with a custom symmetric device (GB/s)")
	load := flag.Float64("load", 1.15, "target mean cluster utilization (sizes the cluster)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	policy, err := core.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	kind, err := storage.ParseKind(*storageFlag)
	if err != nil {
		return err
	}

	jc := trace.DefaultJobsConfig()
	jc.Seed = *seed
	jc.Jobs = *jobs
	jc.MeanTasksPerJob = *tasksPerJob
	workload, err := trace.GenerateJobs(jc)
	if err != nil {
		return err
	}

	discipline, err := parseDiscipline(*disciplineFlag)
	if err != nil {
		return err
	}
	cfg := sched.DefaultConfig(policy, kind)
	cfg.Discipline = discipline
	cfg.MaxEvictionsPerTask = *maxEvictions
	cfg.PreCopy = *preCopy
	if *bandwidth > 0 {
		cfg.CustomBandwidth = *bandwidth * 1e9
	}
	// Size the cluster for the requested load.
	var coreSeconds float64
	for i := range workload {
		for j := range workload[i].Tasks {
			t := &workload[i].Tasks[j]
			coreSeconds += float64(t.Demand.CPUMillis) / 1000 * t.Duration.Seconds()
		}
	}
	meanCores := coreSeconds / (24 * time.Hour).Seconds()
	cfg.Nodes = int(meanCores / *load / (float64(cfg.NodeCapacity.CPUMillis) / 1000))
	if cfg.Nodes < 2 {
		cfg.Nodes = 2
	}

	fmt.Printf("simulating %d jobs (%d tasks) on %d nodes, policy=%v storage=%s\n",
		len(workload), trace.CountTasks(workload), cfg.Nodes, policy, *storageFlag)
	start := time.Now()
	r, err := sched.Run(cfg, workload)
	if err != nil {
		return err
	}
	fmt.Printf("simulated %v of cluster time in %v\n\n", r.Makespan.Round(time.Second), time.Since(start).Round(time.Millisecond))

	fmt.Printf("wasted CPU:      %.1f core-hours (%.1f%% of usage)\n", r.WastedCPUHours, 100*r.WasteFraction())
	fmt.Printf("useful CPU:      %.1f core-hours\n", r.UsefulCPUHours)
	fmt.Printf("energy:          %.1f kWh\n", r.EnergyKWh)
	fmt.Printf("response (mean): low %.0fs, medium %.0fs, high %.0fs\n",
		r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandMiddle), r.MeanResponse(cluster.BandProduction))
	fmt.Printf("preemptions:     %d (kills %d, checkpoints %d of which %d incremental)\n",
		r.Preemptions, r.Kills, r.Checkpoints, r.IncrementalCheckpoints)
	fmt.Printf("restores:        %d (%d remote)\n", r.Restores, r.RemoteRestores)
	fmt.Printf("checkpoint I/O:  %.2f device-hours, peak image footprint %.1f GiB\n",
		r.IOBusyHours, float64(r.PeakImageBytes)/float64(cluster.GiB(1)))
	return nil
}
