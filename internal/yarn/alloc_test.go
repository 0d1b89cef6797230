//go:build !race

package yarn

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"preemptsched/internal/cluster"
	"preemptsched/internal/core"
	"preemptsched/internal/storage"
)

// The allocation budget lives behind !race, like the k-means ones: the race
// detector changes what the runtime allocates.

// GIVEN a Service of service-stream's shape — 4 nodes × 8 containers, each
// task a k-means of 8 points × 2 dims, k=2, 2 iterations — warmed by one round
// of jobs,
// WHEN a second round of 400 jobs of 1–4 tasks is submitted and drained,
// THEN the whole program allocates under one page per completed task: each
// finished task gives its address space back and the next one is built on
// it. (Making a fresh array for every task cost ≈ 13 KiB a task.)
func TestServiceTaskAllocationBudget(t *testing.T) {
	cfg := DefaultConfig(core.PolicyAdaptive, storage.SSD)
	cfg.Nodes, cfg.ContainersPerNode = 4, 8
	cfg.KMeansPoints, cfg.KMeansDims, cfg.KMeansK, cfg.KMeansIters = 8, 2, 2, 2
	var wg sync.WaitGroup
	s, err := startService(cfg, func(JobDone) { wg.Done() })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	next := cluster.JobID(0)
	round := func(jobs int) (tasks int, bytes uint64) {
		specs := make([]cluster.JobSpec, jobs)
		for i := range specs {
			specs[i] = serviceJob(next, cluster.Priority(i%12), 1+i%4, 30*time.Second)
			tasks += len(specs[i].Tasks)
			next++
		}
		wg.Add(jobs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, spec := range specs {
			if err := s.submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		return tasks, after.TotalAlloc - before.TotalAlloc
	}
	round(100)
	tasks, bytes := round(400)
	perTask := bytes / uint64(tasks)
	t.Logf("%d tasks allocated %d bytes, %d a task", tasks, bytes, perTask)
	if perTask >= 4096 {
		t.Errorf("%d bytes a task; budget is one page", perTask)
	}
}
