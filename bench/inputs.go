package main

import (
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/sim"
)

// baseSeed fixes the shape of the generated traces (density.Spec.Seed,
// workload.FacebookConfig.Seed). The generators' own seeds move a run's
// work by tens of percent — which job of a Zipf mix draws the production
// priority decides how contended the trace is — so runs on different
// seeds could not be compared within any useful bound. -seed instead
// drives jitter, which changes every task the program sees while the
// amount of work stays within about a percent.
const baseSeed = 21

// jitterShare is how far jitter moves a task's duration (either way) and
// footprint (down only: a footprint may not exceed the task's demand).
const jitterShare = 0.01

// jitter returns a deep copy of jobs with every task's duration and
// footprint perturbed by a stream seeded with seed.
func jitter(jobs []cluster.JobSpec, seed int64) []cluster.JobSpec {
	rng := sim.NewRNG(seed)
	out := make([]cluster.JobSpec, len(jobs))
	for j, job := range jobs {
		out[j] = job
		out[j].Tasks = append([]cluster.TaskSpec(nil), job.Tasks...)
		for i := range out[j].Tasks {
			t := &out[j].Tasks[i]
			t.Duration = time.Duration(float64(t.Duration) * (1 + jitterShare*(2*rng.Float64()-1)))
			t.MemFootprint = int64(float64(t.MemFootprint) * (1 - jitterShare*rng.Float64()))
		}
	}
	return out
}

func countTasks(jobs []cluster.JobSpec) int {
	n := 0
	for i := range jobs {
		n += len(jobs[i].Tasks)
	}
	return n
}
