package preemptsched_test

import (
	"math"
	"testing"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/obs"
	"preemptsched/internal/sched"
	"preemptsched/internal/storage"
	"preemptsched/internal/workload"
	"preemptsched/internal/yarn"
)

// container is the one demand every task of the differential workload
// carries: exactly one yarn container.
var container = cluster.Resources{CPUMillis: cluster.Cores(1), MemBytes: cluster.GiB(2)}

// differentialJobs is the seeded contended job list both layers run. Each
// call builds a fresh copy, because both layers write through their specs.
func differentialJobs(t *testing.T) []cluster.JobSpec {
	t.Helper()
	wc := workload.DefaultFacebookConfig()
	wc.Jobs = 12
	wc.TotalTasks = 200
	jobs, err := workload.Facebook(wc)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		for _, task := range j.Tasks {
			if task.Demand != container {
				t.Fatalf("task %v demands %v; the differential class is one container per task", task.ID, task.Demand)
			}
		}
	}
	return jobs
}

// doneCounter counts each task's completion edges.
type doneCounter map[cluster.TaskID]int

func (d doneCounter) Observe(e obs.Event) {
	if e.Kind == obs.EvTaskDone {
		d[e.Task]++
	}
}

// GIVEN one seeded job list in which every task demands one container
// ({1 core, 2 GiB}), and a fault-free 3-node cluster of two containers a
// node on SSD,
// WHEN it runs through the trace simulator (sched.Run) and through the
// framework (yarn.Run) under the checkpoint and the adaptive policies,
// THEN both layers' outcomes hold the same identities:
//   - every submitted task completes exactly once;
//   - every preemption is either a kill or a checkpoint
//     (Preemptions == Kills + Checkpoints);
//   - retained compute is exactly the submitted work (UsefulCPUHours equals
//     the submitted core-hours, relative 1e-9);
//   - checkpoint/restore overhead is a share of the waste
//     (0 <= OverheadCPUHours <= WastedCPUHours);
//   - nothing is charged to failures (FailureWasteHours == 0).
//
// The layers are not held equal to each other. Besides heartbeat detection
// delay and modelled versus real image sizes, they differ in restore
// placement: sched places a restore by Algorithm 2 (core.DecideRestore),
// while yarn's ResourceManager restores on the image's node whenever it has
// a free slot and otherwise takes the first node that fits.
func TestLayersHoldTheSameIdentities(t *testing.T) {
	for _, policy := range []core.Policy{core.PolicyCheckpoint, core.PolicyAdaptive} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, layer := range []struct {
				name string
				run  func(core.ClusterConfig, []cluster.JobSpec) (core.Outcome, error)
			}{
				{"sched", func(cc core.ClusterConfig, jobs []cluster.JobSpec) (core.Outcome, error) {
					cfg := sched.DefaultConfig(policy, storage.SSD)
					cfg.ClusterConfig = cc
					cfg.NodeCapacity = cluster.Resources{CPUMillis: 2 * container.CPUMillis, MemBytes: 2 * container.MemBytes}
					res, err := sched.Run(cfg, jobs)
					if err != nil {
						return core.Outcome{}, err
					}
					return res.Outcome, nil
				}},
				{"yarn", func(cc core.ClusterConfig, jobs []cluster.JobSpec) (core.Outcome, error) {
					cfg := yarn.DefaultConfig(policy, storage.SSD)
					cfg.ClusterConfig = cc
					cfg.ContainersPerNode = 2
					res, err := yarn.Run(cfg, jobs)
					if err != nil {
						return core.Outcome{}, err
					}
					return res.Outcome, nil
				}},
			} {
				t.Run(layer.name, func(t *testing.T) {
					jobs := differentialJobs(t)
					done := make(doneCounter)
					cc := core.ClusterConfig{Nodes: 3, Policy: policy, StorageKind: storage.SSD, Observer: done}
					o, err := layer.run(cc, jobs)
					if err != nil {
						t.Fatal(err)
					}
					submitted, coreHours := 0, 0.0
					for _, j := range jobs {
						for _, task := range j.Tasks {
							submitted++
							coreHours += float64(task.Demand.CPUMillis) / 1000 * task.Duration.Hours()
							if n := done[task.ID]; n != 1 {
								t.Errorf("task %v completed %d times", task.ID, n)
							}
						}
					}
					if o.TasksCompleted != submitted {
						t.Errorf("TasksCompleted = %d, submitted %d", o.TasksCompleted, submitted)
					}
					if o.Preemptions == 0 {
						t.Fatal("the run never preempts; the identities went unexercised")
					}
					if o.Preemptions != o.Kills+o.Checkpoints {
						t.Errorf("Preemptions %d != Kills %d + Checkpoints %d", o.Preemptions, o.Kills, o.Checkpoints)
					}
					if rel := math.Abs(o.UsefulCPUHours-coreHours) / coreHours; rel > 1e-9 {
						t.Errorf("UsefulCPUHours %.12g, submitted %.12g core-hours (relative %.3g)", o.UsefulCPUHours, coreHours, rel)
					}
					if o.OverheadCPUHours < 0 || o.OverheadCPUHours > o.WastedCPUHours {
						t.Errorf("OverheadCPUHours %.6g outside [0, WastedCPUHours %.6g]", o.OverheadCPUHours, o.WastedCPUHours)
					}
					if o.FailureWasteHours != 0 {
						t.Errorf("FailureWasteHours = %.6g in a fault-free run", o.FailureWasteHours)
					}
				})
			}
		})
	}
}
