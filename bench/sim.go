package main

import (
	"fmt"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/sched"
	"preemptsched/internal/sched/density"
	"preemptsched/internal/storage"
)

// simInst replays one generated trace through the trace simulator; an op
// is one sched.Run and its unit a scheduling decision.
type simInst struct {
	cfg   sched.Config
	jobs  []cluster.JobSpec
	tasks int
	ref   *sched.Result
	last  *sched.Result
}

// simWorkload builds a density cell of the given size under policy. Both
// sim workloads run the same two layers (sim, sched); they differ in the
// policy, which decides whether Algorithm 1 and cost-aware eviction run.
func simWorkload(name, why string, nodes, tasks, smokeNodes, smokeTasks int, policy core.Policy) workload {
	return workload{name: name, why: why, spans: 2, setup: func(e env) (instance, error) {
		n, t := nodes, tasks
		if e.smoke {
			n, t = smokeNodes, smokeTasks
		}
		end := e.r.span("sched", "density.generate")
		jobs, err := density.Generate(density.Spec{Seed: baseSeed, Nodes: n, Tasks: t, Policy: policy, Storage: storage.SSD})
		end()
		if err != nil {
			return nil, err
		}
		cfg := sched.DefaultConfig(policy, storage.SSD)
		cfg.Nodes = n
		return &simInst{cfg: cfg, jobs: jitter(jobs, e.seed), tasks: t}, nil
	}}
}

func (s *simInst) op(r *rec) (int, error) {
	end := r.span("sched", "sched.run")
	res, err := sched.Run(s.cfg, s.jobs)
	end()
	if err != nil {
		return 0, err
	}
	s.last = res
	if s.ref == nil {
		s.ref = res
	}
	return int(res.Decisions), nil
}

func (s *simInst) check() error {
	got, want := s.last, s.ref
	if got.TasksCompleted != s.tasks {
		return fmt.Errorf("completed %d of %d tasks", got.TasksCompleted, s.tasks)
	}
	if got.Makespan != want.Makespan || got.WastedCPUHours != want.WastedCPUHours || got.PeakImageBytes != want.PeakImageBytes {
		return fmt.Errorf("makespan/waste/peak image %v/%v/%d differ from the first op's %v/%v/%d",
			got.Makespan, got.WastedCPUHours, got.PeakImageBytes, want.Makespan, want.WastedCPUHours, want.PeakImageBytes)
	}
	return nil
}

func (s *simInst) counts() map[string]float64 {
	r := s.last
	return map[string]float64{
		"sim.events_per_op":        float64(r.EventsFired),
		"sched.decisions_per_op":   float64(r.Decisions),
		"sched.preemptions_per_op": float64(r.Preemptions),
		"sched.checkpoints_per_op": float64(r.Checkpoints),
		"sched.kills_per_op":       float64(r.Kills),
		"sched.restores_per_op":    float64(r.Restores),
	}
}

func (s *simInst) layers(m map[string]float64, st spanStats) {
	run := median(st.dur["sched.run"])
	m["sched.run_ms_p50"] = run
	m["sched.us_per_preemption"] = ratio(run*1e3, float64(s.last.Preemptions))
	m["density.generate_ms"] = median(st.dur["density.generate"])
}

func (s *simInst) close(*rec) error { return nil }
