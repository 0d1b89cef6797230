// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* function runs the corresponding experiment
// on this repository's substrates and returns the same rows/series the
// paper reports; RunAll executes the whole evaluation and renders it.
//
// Scale: the paper's one-day Google-trace slice has ~15,000 jobs
// (600,000+ tasks) and its YARN workload 7,000 tasks. Options.PaperScale
// reproduces those sizes; Options.Default shrinks the inputs (keeping
// cluster load factors constant) so the whole evaluation runs in about ten
// seconds on two vCPUs, for tests and benchmarks. Shapes, not absolute
// magnitudes, are the reproduction target — see EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sched"
	"preemptsched/internal/trace"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// yarnLoadFactor is the framework's mean offered load over slot capacity.
// 1.8 reproduces the paper's setup, where 7,000 one-minute tasks over a
// twenty-minute window contend for 192 containers.
const yarnLoadFactor = 1.8

// Options sizes the experiment inputs.
type Options struct {
	Seed int64
	// TraceTasks is the event count for the Section 2 analysis.
	TraceTasks int
	// SimJobs is the job count for the trace-driven simulations
	// (Fig. 3/5); the paper uses ~15,000 (≈600k tasks).
	SimJobs int
	// SimTasksPerJob is the mean tasks per job (paper: ~40).
	SimTasksPerJob int
	// SimLoadFactor is the target mean utilization of the simulated
	// cluster: capacity = mean offered load / SimLoadFactor. Values above
	// 1 overload the cluster at diurnal peaks, producing the preemption
	// pressure the paper's cluster experienced.
	SimLoadFactor float64
	// YarnJobs / YarnTasks size the framework workload (paper: 40 / 7,000).
	YarnJobs  int
	YarnTasks int
	// Parallel bounds the harness worker pool that fans out independent
	// (figure, policy, storage, scale) runs: 0 uses one worker per
	// available CPU, 1 runs strictly sequentially. Each individual
	// simulation stays single-threaded on its own virtual clock, and the
	// rendered output is byte-identical at every level — see DESIGN.md
	// §11 for the determinism contract.
	Parallel int
}

// Default returns a laptop-quick configuration (seconds per experiment).
func Default() Options {
	return Options{
		Seed:           1,
		TraceTasks:     40_000,
		SimJobs:        700,
		SimTasksPerJob: 6,
		SimLoadFactor:  1.15,
		YarnJobs:       10,
		YarnTasks:      120,
	}
}

// PaperScale returns the paper's experiment sizes. A whole evaluation at
// this scale was stopped unfinished after 67 minutes on two vCPUs.
func PaperScale() Options {
	o := Default()
	o.TraceTasks = 200_000
	o.SimJobs = 15_000
	o.SimTasksPerJob = 40
	o.YarnJobs = 40
	o.YarnTasks = 7_000
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.TraceTasks <= 0 || o.SimJobs <= 0 || o.SimTasksPerJob <= 0 ||
		o.YarnJobs <= 0 || o.YarnTasks < o.YarnJobs {
		return fmt.Errorf("experiments: non-positive sizes in %+v", o)
	}
	if o.SimLoadFactor <= 0 || o.SimLoadFactor > 2 {
		return fmt.Errorf("experiments: SimLoadFactor=%v outside (0,2]", o.SimLoadFactor)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("experiments: Parallel=%d negative", o.Parallel)
	}
	return nil
}

// TraceEvents generates the Section 2 event trace of the options' seed
// and size.
func (o Options) TraceEvents() ([]trace.Event, error) {
	cfg := trace.DefaultGenConfig()
	cfg.Seed = o.Seed
	cfg.Tasks = o.TraceTasks
	return trace.Generate(cfg)
}

// simJobs generates the one-day job slice for the simulator.
func (o Options) simJobs() ([]cluster.JobSpec, error) {
	cfg := trace.DefaultJobsConfig()
	cfg.Seed = o.Seed + 1
	cfg.Jobs = o.SimJobs
	cfg.MeanTasksPerJob = o.SimTasksPerJob
	return trace.GenerateJobs(cfg)
}

// simCluster sizes the simulated cluster from the workload: capacity is a
// SimLoadFactor fraction of the peak-hour aggregate demand, which is what
// creates the contention the paper's cluster experienced.
func (o Options) simCluster(jobs []cluster.JobSpec, cfg *sched.Config) {
	// Peak-hour demand: total core-seconds / span, inflated because
	// arrivals cluster diurnally.
	var coreSeconds float64
	for i := range jobs {
		for j := range jobs[i].Tasks {
			t := &jobs[i].Tasks[j]
			coreSeconds += float64(t.Demand.CPUMillis) / 1000 * t.Duration.Seconds()
		}
	}
	meanCores := coreSeconds / (24 * time.Hour).Seconds()
	perNode := float64(cfg.NodeCapacity.CPUMillis) / 1000
	// Capacity such that mean utilization is SimLoadFactor: diurnal peaks
	// then exceed capacity and force preemption.
	nodes := int(meanCores / o.SimLoadFactor / perNode)
	if nodes < 2 {
		nodes = 2
	}
	cfg.Nodes = nodes
}

// yarnJobs generates the Facebook-derived framework workload.
func (o Options) yarnJobs() ([]cluster.JobSpec, error) {
	cfg := workload.DefaultFacebookConfig()
	cfg.Seed = o.Seed + 2
	cfg.Jobs = o.YarnJobs
	cfg.TotalTasks = o.YarnTasks
	return workload.Facebook(cfg)
}

// yarnCluster sizes the framework to the workload: total slots = mean
// concurrent demand / yarnLoadFactor, spread over up to the paper's eight
// nodes. At PaperScale this lands on the paper's 8×24 = 192 containers.
func (o Options) yarnCluster(jobs []cluster.JobSpec, cfg *yarn.Config) {
	var taskSeconds float64
	var span time.Duration
	for i := range jobs {
		for j := range jobs[i].Tasks {
			taskSeconds += jobs[i].Tasks[j].Duration.Seconds()
		}
		if jobs[i].Submit > span {
			span = jobs[i].Submit
		}
	}
	if span <= 0 {
		span = time.Minute
	}
	meanConcurrent := taskSeconds / span.Seconds()
	slots := int(meanConcurrent / yarnLoadFactor)
	if slots < 2 {
		slots = 2
	}
	nodes := 8
	if slots < 16 {
		nodes = 2
	}
	perNode := (slots + nodes - 1) / nodes
	if perNode < 1 {
		perNode = 1
	}
	cfg.Nodes = nodes
	cfg.ContainersPerNode = perNode
}
