package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPUMillis: 2000, MemBytes: GiB(4)}
	b := Resources{CPUMillis: 500, MemBytes: GiB(1)}
	if got := a.Add(b); got.CPUMillis != 2500 || got.MemBytes != GiB(5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got.CPUMillis != 1500 || got.MemBytes != GiB(3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(0.5); got.CPUMillis != 1000 || got.MemBytes != GiB(2) {
		t.Errorf("Scale = %v", got)
	}
}

func TestResourcesFits(t *testing.T) {
	cap := Resources{CPUMillis: Cores(4), MemBytes: GiB(8)}
	tests := []struct {
		name string
		r    Resources
		want bool
	}{
		{"exact", cap, true},
		{"smaller", Resources{Cores(1), GiB(1)}, true},
		{"cpu over", Resources{Cores(5), GiB(1)}, false},
		{"mem over", Resources{Cores(1), GiB(9)}, false},
		{"both over", Resources{Cores(5), GiB(9)}, false},
		{"zero", Resources{}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.r.Fits(cap); got != tt.want {
				t.Errorf("Fits = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestResourcesPredicates(t *testing.T) {
	if !(Resources{}).IsZero() {
		t.Error("zero value not IsZero")
	}
	if (Resources{CPUMillis: 1}).IsZero() {
		t.Error("nonzero reported zero")
	}
	if !(Resources{CPUMillis: -1}).Negative() {
		t.Error("negative cpu not detected")
	}
	if !(Resources{MemBytes: -1}).Negative() {
		t.Error("negative mem not detected")
	}
}

func TestDominantShare(t *testing.T) {
	cap := Resources{CPUMillis: Cores(10), MemBytes: GiB(100)}
	r := Resources{CPUMillis: Cores(5), MemBytes: GiB(20)}
	if got := r.DominantShare(cap); got != 0.5 {
		t.Errorf("DominantShare = %v, want 0.5 (cpu-dominant)", got)
	}
	r = Resources{CPUMillis: Cores(1), MemBytes: GiB(80)}
	if got := r.DominantShare(cap); got != 0.8 {
		t.Errorf("DominantShare = %v, want 0.8 (mem-dominant)", got)
	}
}

// Property: Add and Sub are inverse operations.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(ac, am, bc, bm int32) bool {
		a := Resources{CPUMillis: int64(ac), MemBytes: int64(am)}
		b := Resources{CPUMillis: int64(bc), MemBytes: int64(bm)}
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandOf(t *testing.T) {
	tests := []struct {
		p    Priority
		want Band
	}{
		{0, BandFree}, {1, BandFree},
		{2, BandMiddle}, {5, BandMiddle}, {8, BandMiddle},
		{9, BandProduction}, {11, BandProduction},
	}
	for _, tt := range tests {
		if got := BandOf(tt.p); got != tt.want {
			t.Errorf("BandOf(%d) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestBandString(t *testing.T) {
	if BandFree.String() != "low" || BandMiddle.String() != "medium" || BandProduction.String() != "high" {
		t.Error("band names changed; experiment tables depend on low/medium/high")
	}
}

func validJob() JobSpec {
	j := JobSpec{ID: 7, Priority: 3, Latency: 1, Submit: time.Second}
	j.Tasks = []TaskSpec{{
		ID:           TaskID{Job: 7, Index: 0},
		Priority:     3,
		Demand:       Resources{Cores(1), GiB(2)},
		MemFootprint: GiB(1),
		Duration:     time.Minute,
		Submit:       time.Second,
	}}
	return j
}

func TestJobValidate(t *testing.T) {
	j := validJob()
	if err := j.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*JobSpec)
		// names, when set, must appear in the error.
		names string
	}{
		{"priority high", func(j *JobSpec) { j.Priority = 12 }, ""},
		{"priority low", func(j *JobSpec) { j.Priority = -1 }, ""},
		{"task priority high", func(j *JobSpec) { j.Tasks[0].Priority = 12 }, "task 7/0"},
		{"task priority low", func(j *JobSpec) { j.Tasks[0].Priority = -1 }, "task 7/0"},
		{"latency", func(j *JobSpec) { j.Latency = 4 }, ""},
		{"no tasks", func(j *JobSpec) { j.Tasks = nil }, ""},
		{"wrong job id", func(j *JobSpec) { j.Tasks[0].ID.Job = 8 }, ""},
		{"zero duration", func(j *JobSpec) { j.Tasks[0].Duration = 0 }, ""},
		{"zero demand", func(j *JobSpec) { j.Tasks[0].Demand.CPUMillis = 0 }, ""},
		{"footprint over demand", func(j *JobSpec) { j.Tasks[0].MemFootprint = GiB(3) }, ""},
		{"task before job", func(j *JobSpec) { j.Tasks[0].Submit = 0 }, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j := validJob()
			tt.mutate(&j)
			err := j.Validate()
			if err == nil {
				t.Fatal("invalid job accepted")
			}
			if !strings.Contains(err.Error(), tt.names) {
				t.Errorf("error %q does not name %q", err, tt.names)
			}
		})
	}
}

func TestJobAggregates(t *testing.T) {
	j := validJob()
	j.Tasks = append(j.Tasks, TaskSpec{
		ID:           TaskID{Job: 7, Index: 1},
		Demand:       Resources{Cores(2), GiB(1)},
		MemFootprint: GiB(1),
		Duration:     2 * time.Minute,
		Submit:       time.Second,
	})
	if got := j.TotalWork(); got != 3*time.Minute {
		t.Errorf("TotalWork = %v", got)
	}
	// Durations whose sum wraps int64 saturate: the horizon check in
	// yarn.Service.Reserve compares this sum, and a wrapped one would pass it.
	j.Tasks[0].Duration, j.Tasks[1].Duration = math.MaxInt64-1, 2
	if got := j.TotalWork(); got != math.MaxInt64 {
		t.Errorf("TotalWork of a wrapping sum = %v, want it saturated", got)
	}
	if j.Band() != BandMiddle {
		t.Errorf("Band = %v, want medium", j.Band())
	}
}

func TestUnitHelpers(t *testing.T) {
	if Cores(2.5) != 2500 {
		t.Errorf("Cores(2.5) = %d", Cores(2.5))
	}
	if GiB(1) != 1<<30 {
		t.Errorf("GiB(1) = %d", GiB(1))
	}
	if MiB(1) != 1<<20 {
		t.Errorf("MiB(1) = %d", MiB(1))
	}
}

// TaskID.String is built with strconv into a stack buffer; it must stay
// byte-equal to the "%d/%d" it replaced, at every width the two fields can
// take, and cost only the string it returns.
func TestTaskIDString(t *testing.T) {
	jobs := []JobID{0, 1, -1, 7, 1_000_003, math.MaxInt64, math.MinInt64}
	indices := []int32{0, 1, -1, 42, math.MaxInt32, math.MinInt32}
	for _, job := range jobs {
		for _, index := range indices {
			id := TaskID{Job: job, Index: index}
			if got, want := id.String(), fmt.Sprintf("%d/%d", job, index); got != want {
				t.Errorf("String() = %q, want %q", got, want)
			}
		}
	}
	id := TaskID{Job: math.MinInt64, Index: math.MinInt32} // the longest rendering
	var sink string
	if allocs := testing.AllocsPerRun(100, func() { sink = id.String() }); allocs != 1 {
		t.Errorf("String() makes %.0f allocations, want 1 (the string)", allocs)
	}
	_ = sink
}
