// Command experiments is the front end for the paper's evaluation. With
// no subcommand it regenerates every table and figure and writes the
// rendered report to stdout or a file.
//
// Usage:
//
//	experiments [-scale default|paper] [-o report.txt] [-seed S] [-parallel N]
//	experiments trace [-tasks N] [-seed S] [-in trace.csv[.gz]] [-dump trace.csv[.gz]]
//	experiments sim [-policy kill|checkpoint|adaptive|wait] [-storage hdd|ssd|nvm]
//	                [-discipline priority|fair-share|capacity] [-max-evictions N] [-precopy]
//	                [-jobs N] [-tasks-per-job N] [-bandwidth GB/s] [-load F] [-seed S]
//	experiments density [-cells 1k,5k,10k | -nodes N [-tasks N] [-jobs N]] [-stable]
//	                    [-json file|-] [-pprof-addr A] [-cpuprofile F] [-memprofile F] ...
//
// trace prints the Section 2 analysis (Fig. 1a-c, Tables 1-2) of a
// generated trace or of the CSV named by -in. sim runs one policy of the
// Section 3.3.2 simulation on the report's workload and cluster sizing:
// -policy checkpoint -storage ssd is Fig. 3's Chk-SSD run. density runs
// the scheduler density suite behind BENCH_scale.json; -stable keeps only
// the fields that are byte-identical at every -parallel, and -json - puts
// the JSON alone on stdout and the report on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/experiments"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
	"preemptsched/internal/trace"
)

const usage = `usage: experiments [-scale default|paper] [-o report.txt] [-seed S] [-parallel N]
       experiments trace|sim|density [flags]   (-h lists a subcommand's flags)
`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run dispatches on the first argument: a subcommand name, or flags (or
// nothing) for the full report.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runReport(args, stdout, stderr)
	}
	sub, ok := map[string]func([]string, io.Writer, io.Writer) error{
		"trace":   runTrace,
		"sim":     runSim,
		"density": runDensity,
	}[args[0]]
	if !ok {
		fmt.Fprint(stderr, usage)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return sub(args[1:], stdout, stderr)
}

// parseFlags parses a subcommand's flags, reporting errors and -h on
// stderr, and rejects stray arguments, which would otherwise be ignored.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// devicePolicy is the -policy/-storage pair sim and density share.
type devicePolicy struct{ policy, storage string }

func (d *devicePolicy) bind(fs *flag.FlagSet, policy string) {
	fs.StringVar(&d.policy, "policy", policy, "preemption policy: wait|kill|checkpoint|adaptive")
	fs.StringVar(&d.storage, "storage", "ssd", "checkpoint storage: hdd|ssd|nvm|pmfs|nvram")
}

func (d devicePolicy) parse() (core.Policy, storage.Kind, error) {
	policy, err := core.ParsePolicy(d.policy)
	if err != nil {
		return 0, 0, err
	}
	kind, err := storage.ParseKind(d.storage)
	return policy, kind, err
}

// runReport renders the whole evaluation.
func runReport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	scale := fs.String("scale", "default", "input sizes: default (seconds) or paper (over an hour)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	seed := fs.Int64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", 0, "worker pool size for independent runs (0 = one per CPU, 1 = sequential); the report is byte-identical at every level")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	var o experiments.Options
	switch *scale {
	case "default":
		o = experiments.Default()
	case "paper":
		o = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want default|paper)", *scale)
	}
	o.Seed = *seed
	o.Parallel = *parallel

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	if err := experiments.RunAll(o, w); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "experiments: full evaluation regenerated in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// runTrace prints the Section 2 analysis of one trace: the report's
// generated trace at the given seed and size, or the CSV named by -in.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments trace", flag.ContinueOnError)
	o := experiments.Default()
	fs.IntVar(&o.TraceTasks, "tasks", o.TraceTasks, "number of tasks in the generated trace")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "generator seed")
	in := fs.String("in", "", "read a trace CSV (gzip-compressed if it ends in .gz) instead of generating one")
	dump := fs.String("dump", "", "also write the trace as CSV to this path (gzip-compressed if it ends in .gz)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}

	events, err := loadTrace(*in, o)
	if err != nil {
		return err
	}
	if *dump != "" {
		if err := writeTrace(*dump, events); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d events to %s\n", len(events), *dump)
	}

	a := trace.Analyze(events)
	fmt.Fprintf(stdout, "tasks: %d   preempted: %d (%.1f%%)   repeat rate: %.1f%%   >=10 evictions: %.1f%%\n",
		a.Tasks, a.PreemptedTasks, 100*a.OverallRate(), 100*a.RepeatRate(), 100*a.TenPlusRate())
	fmt.Fprintf(stdout, "wasted CPU under kill-based preemption: %.0f core-hours (%.1f%% of usage)\n\n",
		a.WastedCPUHours, 100*a.WasteFraction())
	for _, tb := range experiments.TraceTables(a) {
		fmt.Fprintln(stdout, tb)
	}
	return nil
}

// loadTrace reads the trace CSV at path, or generates o's trace when path
// is empty.
func loadTrace(path string, o experiments.Options) ([]trace.Event, error) {
	if path == "" {
		return o.TraceEvents()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gz") {
		return trace.ReadCSVGz(f)
	}
	return trace.ReadCSV(f)
}

// writeTrace publishes events as CSV at path through an atomic rename.
func writeTrace(path string, events []trace.Event) error {
	write := trace.WriteCSV
	if strings.HasSuffix(path, ".gz") {
		write = trace.WriteCSVGz
	}
	return obs.WriteFileAtomic(path, func(w io.Writer) error { return write(w, events) })
}

// runSim runs one policy of the trace-driven simulation on the report's
// workload and cluster sizing, and prints its aggregate outcomes.
func runSim(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments sim", flag.ContinueOnError)
	var dev devicePolicy
	dev.bind(fs, "adaptive")
	discipline := fs.String("discipline", "priority", "contention arbitration: priority|fair-share|capacity")
	maxEvictions := fs.Int("max-evictions", 0, "cap preemptions per task (0 = unlimited)")
	preCopy := fs.Bool("precopy", false, "use pre-copy checkpointing (dump while the victim runs)")
	bandwidth := fs.Float64("bandwidth", 0, "override storage with a custom symmetric device (GB/s)")
	o := experiments.Default()
	fs.IntVar(&o.SimJobs, "jobs", o.SimJobs, "number of jobs (paper one-day slice: 15000)")
	fs.IntVar(&o.SimTasksPerJob, "tasks-per-job", o.SimTasksPerJob, "mean tasks per job (paper: 40)")
	fs.Float64Var(&o.SimLoadFactor, "load", o.SimLoadFactor, "target mean cluster utilization in (0,2] (sizes the cluster)")
	fs.Int64Var(&o.Seed, "seed", o.Seed, "workload seed (jobs are generated from seed+1, as in the report)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if err := o.Validate(); err != nil {
		return err
	}
	policy, kind, err := dev.parse()
	if err != nil {
		return err
	}
	disc, err := parseDiscipline(*discipline)
	if err != nil {
		return err
	}
	spec, err := experiments.SimSpec(o, policy, kind, func(c *sched.Config) {
		c.Discipline = disc
		c.MaxEvictionsPerTask = *maxEvictions
		c.PreCopy = *preCopy
		if *bandwidth > 0 {
			c.CustomBandwidth = *bandwidth * 1e9
		}
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "simulating %d jobs (%d tasks) on %d nodes, policy=%v storage=%s\n",
		len(spec.Jobs), trace.CountTasks(spec.Jobs), spec.Config.Nodes, policy, dev.storage)
	start := time.Now()
	r, err := sched.Run(spec.Config, spec.Jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "simulated %v of cluster time in %v\n\n", r.Makespan.Round(time.Second), time.Since(start).Round(time.Millisecond))

	fmt.Fprintf(stdout, "wasted CPU:      %.1f core-hours (%.1f%% of usage)\n", r.WastedCPUHours, 100*r.WasteFraction())
	fmt.Fprintf(stdout, "useful CPU:      %.1f core-hours\n", r.UsefulCPUHours)
	fmt.Fprintf(stdout, "energy:          %.1f kWh\n", r.EnergyKWh)
	fmt.Fprintf(stdout, "response (mean): low %.0fs, medium %.0fs, high %.0fs\n",
		r.MeanResponse(cluster.BandFree), r.MeanResponse(cluster.BandMiddle), r.MeanResponse(cluster.BandProduction))
	fmt.Fprintf(stdout, "preemptions:     %d (kills %d, checkpoints %d of which %d incremental)\n",
		r.Preemptions, r.Kills, r.Checkpoints, r.IncrementalCheckpoints)
	fmt.Fprintf(stdout, "restores:        %d (%d remote)\n", r.Restores, r.RemoteRestores)
	fmt.Fprintf(stdout, "checkpoint I/O:  %.2f device-hours, peak image footprint %.1f GiB\n",
		r.IOBusyHours, float64(r.PeakImageBytes)/float64(cluster.GiB(1)))
	return nil
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
