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
// THEN the whole program allocates under 768 bytes per completed task. It
// measures 600–605 on a 2-vCPU x86-64 container with go1.24; the margin is
// about a quarter. Each finished task gives its address space back and the
// next one is built on it (a fresh array for every task cost ≈ 13 KiB a
// task), draws its dataset from the pooled k-means stream, and leaves no
// per-task checksum entry behind (with both, a task cost 800–810 bytes).
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
	if perTask >= 768 {
		t.Errorf("%d bytes a task; budget is 768", perTask)
	}
}

// GIVEN a Service of service-stream's shape, warmed by a round of jobs,
// WHEN two halves of 10,000 jobs each stream through it, each drained and
// followed by a settled heap reading (two collections, so pooled scratch
// is dropped as well),
// THEN the live heap grows by under 8 bytes per job completed between the
// two readings: a finished job leaves nothing behind. (The per-task
// checksum map, the set of every ID reserved and the all-jobs response
// samples kept about 100 bytes a job.)
func TestServiceRetainsNothingPerCompletedJob(t *testing.T) {
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
	half := func(jobs int) uint64 {
		wg.Add(jobs)
		for i := 0; i < jobs; i++ {
			if err := s.submit(serviceJob(next, cluster.Priority(i%12), 1+i%4, 30*time.Second)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		wg.Wait()
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	const jobs = 10_000
	half(1000)
	first := half(jobs)
	second := half(jobs)
	perJob := (float64(second) - float64(first)) / jobs
	t.Logf("live heap %d bytes after the first half, %d after the second: %.1f bytes a job", first, second, perJob)
	if perJob >= 8 {
		t.Errorf("the service retains %.1f bytes per completed job", perJob)
	}
}
