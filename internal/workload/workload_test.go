package workload

import (
	"testing"
	"time"

	"preemptsched/internal/cluster"
)

func TestFacebookDefaults(t *testing.T) {
	jobs, err := Facebook(DefaultFacebookConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 40 {
		t.Fatalf("jobs = %d, want 40", len(jobs))
	}
	tasks, highJobs, highTasks := 0, 0, 0
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		tasks += len(jobs[i].Tasks)
		if jobs[i].Priority == 10 {
			highJobs++
			highTasks += len(jobs[i].Tasks)
		}
	}
	if tasks < 7000 || tasks > 7100 {
		t.Errorf("tasks = %d, want ~7000", tasks)
	}
	// Jobs/3 periodic production bursts carrying ~highPriorityShare of the
	// work.
	if highJobs != 13 {
		t.Errorf("high-priority jobs = %d, want 13", highJobs)
	}
	if share := float64(highTasks) / float64(tasks); share < 0.25 || share > 0.35 {
		t.Errorf("high-priority work share = %.2f, want ~0.3", share)
	}
	// Bursts are periodic: evenly spaced submits.
	gap := jobs[1].Submit - jobs[0].Submit
	for k := 2; k < highJobs; k++ {
		if jobs[k].Submit-jobs[k-1].Submit != gap {
			t.Errorf("burst %d not periodic", k)
		}
	}
	// Zipf shape among the low-priority background: the largest low job
	// dominates the smallest.
	if len(jobs[13].Tasks) < 5*len(jobs[39].Tasks) {
		t.Errorf("low-priority sizes not heavy-tailed: first=%d last=%d", len(jobs[13].Tasks), len(jobs[39].Tasks))
	}
	// Production tasks are latency-sensitive: far shorter than background.
	if jobs[0].Tasks[0].Duration >= jobs[13].Tasks[0].Duration {
		t.Error("burst tasks should be shorter than background tasks")
	}
	// Footprint matches the paper's ~1.8 GB k-means tasks.
	if f := jobs[0].Tasks[0].MemFootprint; f != int64(1.8*float64(cluster.GiB(1))) {
		t.Errorf("footprint = %d", f)
	}
}

func TestFacebookDeterministic(t *testing.T) {
	a, _ := Facebook(DefaultFacebookConfig())
	b, _ := Facebook(DefaultFacebookConfig())
	for i := range a {
		if a[i].Priority != b[i].Priority || a[i].Submit != b[i].Submit || len(a[i].Tasks) != len(b[i].Tasks) {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestFacebookValidation(t *testing.T) {
	bad := []FacebookConfig{
		{Jobs: 0, TotalTasks: 10, TaskDuration: time.Minute, Span: time.Minute},
		{Jobs: 10, TotalTasks: 5, TaskDuration: time.Minute, Span: time.Minute},
		{Jobs: 2, TotalTasks: 10, TaskDuration: 0, Span: time.Minute},
		{Jobs: 2, TotalTasks: 10, TaskDuration: time.Minute, Span: 0},
	}
	for i, cfg := range bad {
		if _, err := Facebook(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSensitivityScenario(t *testing.T) {
	jobs := SensitivityScenario(time.Minute, 30*time.Second, cluster.GiB(5))
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	low, high := jobs[0], jobs[1]
	if low.Priority >= high.Priority {
		t.Error("first job should be low priority")
	}
	if low.Submit != 0 || high.Submit != 30*time.Second {
		t.Errorf("submits: %v / %v", low.Submit, high.Submit)
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Errorf("job %d invalid: %v", j.ID, err)
		}
		if j.Tasks[0].MemFootprint != cluster.GiB(5) {
			t.Errorf("footprint = %d", j.Tasks[0].MemFootprint)
		}
		if j.Tasks[0].Duration != time.Minute {
			t.Errorf("duration = %v", j.Tasks[0].Duration)
		}
	}
}
