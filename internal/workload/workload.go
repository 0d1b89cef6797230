// Package workload builds the job mixes of the paper's framework
// experiments: the Facebook-derived mix of Section 5.3 (40 jobs totalling
// ~7,000 tasks, split into low- and high-priority classes, each task a
// k-means run with a ~1.8 GB footprint) and the two-job sensitivity
// scenario of Sections 3.3.3/4.2.2.
package workload

import (
	"fmt"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// Every task of the derived workload carries the paper's ~1.8 GB k-means
// footprint, and the production bursts carry highPriorityShare of the
// tasks.
var taskFootprint = int64(1.8 * float64(cluster.GiB(1)))

const highPriorityShare = 0.3

// FacebookConfig parameterizes the derived workload. Zero values take the
// paper's numbers.
type FacebookConfig struct {
	Seed int64
	// Jobs is the job count (paper: 40).
	Jobs int
	// TotalTasks approximates the task total (paper: ~7,000); per-job task
	// counts follow the heavy-tailed small-jobs-dominate shape of the
	// Facebook trace, where a few large jobs hold most tasks.
	TotalTasks int
	// TaskDuration is the mean compute time of background (low-priority)
	// tasks. Production-burst tasks are latency-sensitive and run a
	// quarter of it.
	TaskDuration time.Duration
	// Span is the submission window.
	Span time.Duration
}

// DefaultFacebookConfig returns the paper's Section 5.3 shape.
func DefaultFacebookConfig() FacebookConfig {
	return FacebookConfig{
		Seed:         21,
		Jobs:         40,
		TotalTasks:   7000,
		TaskDuration: 3 * time.Minute,
		Span:         30 * time.Minute,
	}
}

// Validate checks the configuration.
func (c FacebookConfig) Validate() error {
	if c.Jobs <= 0 || c.TotalTasks < c.Jobs {
		return fmt.Errorf("workload: need Jobs>0 and TotalTasks>=Jobs, got %d/%d", c.Jobs, c.TotalTasks)
	}
	if c.TaskDuration <= 0 || c.Span <= 0 {
		return fmt.Errorf("workload: non-positive duration or span")
	}
	return nil
}

// Facebook generates the derived job mix, reproducing the dynamics the
// paper cites from Facebook's cluster: a standing backlog of low-priority
// jobs (Zipf-distributed sizes — a few jobs hold most tasks) punctuated by
// periodic high-priority production bursts, after the observation that "a
// large production job would arrive every 500 seconds and kill all low
// priority map tasks". The bursts carry highPriorityShare of the total
// work, split evenly across Jobs/4 bursts spread over the span.
func Facebook(cfg FacebookConfig) ([]cluster.JobSpec, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)

	numHigh := cfg.Jobs / 3
	if numHigh < 1 {
		numHigh = 1
	}
	numLow := cfg.Jobs - numHigh
	highTasks := int(highPriorityShare * float64(cfg.TotalTasks))
	if highTasks < numHigh {
		highTasks = numHigh
	}
	lowTasks := cfg.TotalTasks - highTasks
	if numLow > 0 && lowTasks < numLow {
		lowTasks = numLow
	}

	counts := make([]int, cfg.Jobs)
	// Bursts split the production work evenly.
	for k := 0; k < numHigh; k++ {
		counts[k] = highTasks / numHigh
		if k < highTasks%numHigh {
			counts[k]++
		}
	}
	// Low-priority jobs follow a Zipf split of the background work.
	if numLow > 0 {
		var sum float64
		weights := make([]float64, numLow)
		for k := range weights {
			weights[k] = 1 / float64(k+1)
			sum += weights[k]
		}
		assigned := 0
		for k := range weights {
			counts[numHigh+k] = 1 + int(float64(lowTasks)*weights[k]/sum)
			assigned += counts[numHigh+k]
		}
		if assigned < lowTasks {
			counts[numHigh] += lowTasks - assigned
		}
	}

	burstGap := cfg.Span / time.Duration(numHigh)
	jobs := make([]cluster.JobSpec, 0, cfg.Jobs)
	for k := 0; k < cfg.Jobs; k++ {
		var (
			prio   cluster.Priority
			submit time.Duration
		)
		if k < numHigh {
			prio = 10
			submit = burstGap/2 + time.Duration(k)*burstGap
		} else {
			prio = 0
			submit = time.Duration(rng.Bounded(0, 0.5) * float64(cfg.Span))
		}
		user := "production"
		if prio == 0 {
			user = fmt.Sprintf("tenant-%d", k%5)
		}
		job := cluster.JobSpec{
			ID:       cluster.JobID(k),
			Priority: prio,
			User:     user,
			Submit:   submit,
		}
		base := cfg.TaskDuration
		if prio > 0 {
			base = cfg.TaskDuration / 4
		}
		for i := 0; i < counts[k]; i++ {
			dur := time.Duration(float64(base) * rng.Bounded(0.7, 1.3))
			job.Tasks = append(job.Tasks, cluster.TaskSpec{
				ID:           cluster.TaskID{Job: job.ID, Index: int32(i)},
				Priority:     prio,
				User:         user,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)},
				MemFootprint: taskFootprint,
				Duration:     dur,
				Submit:       submit,
			})
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// SensitivityScenario builds the two-job contention scenario of Section
// 3.3.3: a low-priority job starts at t=0; a high-priority job of the same
// shape arrives at preemptAt. Both need duration of compute and carry
// footprint bytes of state.
func SensitivityScenario(duration, preemptAt time.Duration, footprint int64) []cluster.JobSpec {
	mk := func(id cluster.JobID, prio cluster.Priority, submit time.Duration) cluster.JobSpec {
		return cluster.JobSpec{
			ID:       id,
			Priority: prio,
			Submit:   submit,
			Tasks: []cluster.TaskSpec{{
				ID:           cluster.TaskID{Job: id},
				Priority:     prio,
				Demand:       cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: footprint + cluster.GiB(1)},
				MemFootprint: footprint,
				Duration:     duration,
				Submit:       submit,
			}},
		}
	}
	return []cluster.JobSpec{mk(0, 0, 0), mk(1, 10, preemptAt)}
}
