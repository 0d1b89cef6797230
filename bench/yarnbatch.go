package main

import (
	"fmt"
	"reflect"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
	wl "preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// yarnInst runs one contended Facebook-derived mix through the RM/AM/NM
// framework on its in-process DFS, with real k-means processes dumped and
// restored on preemption; an op is one yarn.Run and its unit a completed
// task.
type yarnInst struct {
	cfg   yarn.Config
	jobs  []cluster.JobSpec
	tasks int
	ref   *yarn.Result
	last  *yarn.Result
	// wall sums, per yarnWall row, the histogram's total over the traced ops.
	wall   [len(yarnWall)]float64
	traced int
}

// yarnWall pairs a per-layer metric with the wall-clock histogram yarn.Run
// fills for it.
var yarnWall = [...]struct{ metric, hist string }{
	{"yarn.ckpt_dump_wall_ms", "checkpoint.dump.seconds"},
	{"yarn.ckpt_restore_wall_ms", "checkpoint.restore.seconds"},
	{"yarn.dfs_block_write_wall_ms", "dfs.client.block.write.seconds"},
	{"yarn.dfs_block_read_wall_ms", "dfs.client.block.read.seconds"},
}

func yarnWorkload(name, why string) workload {
	return workload{name: name, why: why, spans: 2, setup: func(e env) (instance, error) {
		fc := wl.DefaultFacebookConfig()
		fc.Seed = baseSeed
		fc.Jobs, fc.TotalTasks = 4, 700
		cfg := yarn.DefaultConfig(core.PolicyAdaptive, storage.SSD)
		if e.smoke {
			// Two nodes of four slots keep a 60-task mix contended.
			fc.TotalTasks = 60
			cfg.Nodes, cfg.ContainersPerNode = 2, 4
		}
		end := e.r.span("yarn", "workload.facebook")
		jobs, err := wl.Facebook(fc)
		end()
		if err != nil {
			return nil, err
		}
		return &yarnInst{cfg: cfg, jobs: jitter(jobs, e.seed), tasks: countTasks(jobs)}, nil
	}}
}

func (y *yarnInst) op(r *rec) (int, error) {
	end := r.span("yarn", "yarn.run")
	res, err := yarn.Run(y.cfg, y.jobs)
	end()
	if err != nil {
		return 0, err
	}
	y.last = res
	if y.ref == nil {
		y.ref = res
	}
	if r != nil {
		y.traced++
		for i, w := range yarnWall {
			y.wall[i] += res.Metrics.Hist(w.hist).Sum * 1e3
		}
	}
	return res.TasksCompleted, nil
}

func (y *yarnInst) check() error {
	got, want := y.last, y.ref
	if got.TasksCompleted != y.tasks {
		return fmt.Errorf("completed %d of %d tasks", got.TasksCompleted, y.tasks)
	}
	if len(got.TaskChecksums) != y.tasks || !reflect.DeepEqual(got.TaskChecksums, want.TaskChecksums) {
		return fmt.Errorf("task checksums differ from the first op's")
	}
	if got.DumpFailures+got.RestoreFailures+got.FallbackKills != 0 {
		return fmt.Errorf("%d dump failures, %d restore failures, %d fallback kills",
			got.DumpFailures, got.RestoreFailures, got.FallbackKills)
	}
	return nil
}

func (y *yarnInst) counts() map[string]float64 {
	r := y.last
	return map[string]float64{
		"yarn.preemptions_per_op": float64(r.Preemptions),
		"yarn.checkpoints_per_op": float64(r.Checkpoints),
		"yarn.kills_per_op":       float64(r.Kills),
		"yarn.restores_per_op":    float64(r.Restores),
	}
}

func (y *yarnInst) layers(m map[string]float64, st spanStats) {
	run := median(st.dur["yarn.run"])
	m["yarn.run_ms_p50"] = run
	m["yarn.us_per_preemption"] = ratio(run*1e3, float64(y.last.Preemptions))
	m["workload.facebook_ms"] = median(st.dur["workload.facebook"])
	for i, w := range yarnWall {
		m[w.metric] = ratio(y.wall[i], float64(y.traced))
	}
}

func (y *yarnInst) close(*rec) error { return nil }
