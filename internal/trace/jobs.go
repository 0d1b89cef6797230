package trace

import (
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// JobsConfig parameterizes the job-level generator that feeds the
// trace-driven scheduling simulator (the paper's one-day slice:
// ~15,000 jobs totalling over 600,000 tasks requiring over 22,000 cores).
type JobsConfig struct {
	Seed int64
	// Jobs is the number of jobs to generate.
	Jobs int
	// MeanTasksPerJob controls the geometric task-count distribution.
	MeanTasksPerJob int
	// Span is the arrival window (one day in the paper's experiment).
	Span time.Duration
}

// DefaultJobsConfig returns the paper's one-day-slice shape at a scale
// configurable via Jobs.
func DefaultJobsConfig() JobsConfig {
	return JobsConfig{Seed: 7, Jobs: 15_000, MeanTasksPerJob: 40, Span: 24 * time.Hour}
}

// Validate checks the configuration.
func (c JobsConfig) Validate() error {
	if c.Jobs <= 0 {
		return fmt.Errorf("trace: Jobs=%d must be positive", c.Jobs)
	}
	if c.MeanTasksPerJob <= 0 {
		return fmt.Errorf("trace: MeanTasksPerJob=%d must be positive", c.MeanTasksPerJob)
	}
	if c.Span <= 0 {
		return fmt.Errorf("trace: Span=%v must be positive", c.Span)
	}
	return nil
}

// GenerateJobs produces jobs for the scheduling simulator with the
// calibrated band/latency/priority mix and heavy-tailed durations of the
// event generator. Unlike Generate, eviction behaviour is not sampled
// here: preemption emerges from the simulator's own scheduling decisions.
func GenerateJobs(cfg JobsConfig) ([]cluster.JobSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	day := 24 * time.Hour
	jobs := make([]cluster.JobSpec, 0, cfg.Jobs)
	for j := 0; j < cfg.Jobs; j++ {
		band, latency := sampleBandLatency(rng)
		prio := samplePriority(rng, band)

		var submit time.Duration
		for {
			submit = time.Duration(rng.Int63n(int64(cfg.Span)))
			if rng.Float64()*1.3 < diurnalRate(submit, day) {
				break
			}
		}

		// Geometric task count with the configured mean, at least 1.
		n := 1 + int(rng.Exp(float64(cfg.MeanTasksPerJob-1)))
		job := cluster.JobSpec{
			ID:       cluster.JobID(j),
			Priority: prio,
			Latency:  latency,
			// Tenants are assigned round-robin from the job index so the
			// fair-share discipline has a stable population to balance;
			// deriving from the index keeps the RNG stream — and thus all
			// other generated fields — unchanged.
			User:   fmt.Sprintf("user-%02d", j%16),
			Submit: submit,
		}
		// Tasks of one job share a duration scale and demand profile, as
		// gang-style cluster jobs do.
		base := sampleDuration(rng, band)
		cpu := cluster.Cores(rng.Bounded(0.5, 2))
		mem := cluster.GiB(rng.Bounded(0.5, 4))
		for i := 0; i < n; i++ {
			dur := time.Duration(float64(base) * rng.Bounded(0.8, 1.2))
			if dur < time.Minute {
				dur = time.Minute
			}
			job.Tasks = append(job.Tasks, cluster.TaskSpec{
				ID:           cluster.TaskID{Job: job.ID, Index: int32(i)},
				Priority:     prio,
				Latency:      latency,
				User:         job.User,
				Demand:       cluster.Resources{CPUMillis: cpu, MemBytes: mem},
				MemFootprint: int64(float64(mem) * rng.Bounded(0.5, 0.9)),
				Duration:     dur,
				Submit:       submit,
			})
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// CountTasks returns the total number of tasks across jobs.
func CountTasks(jobs []cluster.JobSpec) int {
	n := 0
	for i := range jobs {
		n += len(jobs[i].Tasks)
	}
	return n
}
