package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"preemptsched/internal/cluster"
)

func generateTest(t *testing.T, tasks int) []Event {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.Tasks = tasks
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenConfig{Tasks: 0, Duration: time.Hour}); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := Generate(GenConfig{Tasks: 10, Duration: 0}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tasks = 500
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestGenerateSortedAndWellFormed(t *testing.T) {
	events := generateTest(t, 2000)
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("events out of order at %d", i)
		}
	}
	// Per-task sequences: submit, schedule, (evict, schedule)*, finish.
	for id, seq := range ByTask(events) {
		if seq[0].Type != Submit {
			t.Fatalf("task %v starts with %v", id, seq[0].Type)
		}
		if seq[len(seq)-1].Type != Finish {
			t.Fatalf("task %v ends with %v", id, seq[len(seq)-1].Type)
		}
		for i := 1; i < len(seq); i++ {
			prev, cur := seq[i-1].Type, seq[i].Type
			ok := (prev == Submit && cur == Schedule) ||
				(prev == Schedule && (cur == Evict || cur == Finish)) ||
				(prev == Evict && cur == Schedule)
			if !ok {
				t.Fatalf("task %v: illegal transition %v -> %v", id, prev, cur)
			}
			if seq[i].Time < seq[i-1].Time {
				t.Fatalf("task %v: time went backwards", id)
			}
		}
	}
}

// The core calibration test: the analyzer run on a generated trace must
// reproduce the paper's Section 2 numbers.
func TestCalibrationMatchesPaper(t *testing.T) {
	a := Analyze(generateTest(t, 60_000))

	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4f, paper reports %.4f (tol %.4f)", name, got, want, tol)
		}
	}
	// Headline: 12.4% of scheduled tasks preempted.
	within("overall preemption rate", a.OverallRate(), 0.124, 0.02)
	// Table 1 per-band rates.
	within("free-band rate", a.Bands[cluster.BandFree].Rate(), 0.2026, 0.02)
	within("middle-band rate", a.Bands[cluster.BandMiddle].Rate(), 0.0055, 0.004)
	within("production-band rate", a.Bands[cluster.BandProduction].Rate(), 0.0102, 0.008)
	// Table 1 band populations (shares of all tasks: 28.4/17.3/1.7 M).
	total := float64(a.Tasks)
	within("free-band share", float64(a.Bands[cluster.BandFree].Tasks)/total, 0.599, 0.03)
	within("middle-band share", float64(a.Bands[cluster.BandMiddle].Tasks)/total, 0.365, 0.03)
	within("production-band share", float64(a.Bands[cluster.BandProduction].Tasks)/total, 0.036, 0.015)
	// Table 2 per-latency-class rates.
	within("latency-0 rate", a.Latencies[0].Rate(), 0.1176, 0.02)
	within("latency-1 rate", a.Latencies[1].Rate(), 0.1887, 0.03)
	within("latency-2 rate", a.Latencies[2].Rate(), 0.0814, 0.025)
	within("latency-3 rate", a.Latencies[3].Rate(), 0.1480, 0.06)
	// Fig. 1c: repeat preemptions.
	within("repeat rate", a.RepeatRate(), 0.435, 0.03)
	within("ten-plus rate", a.TenPlusRate(), 0.17, 0.03)
	// Fig. 1b: priorities 0-1 account for over 90% of preemptions.
	lowPreempts := a.PreemptionsByPriority[0] + a.PreemptionsByPriority[1]
	all := 0
	for _, n := range a.PreemptionsByPriority {
		all += n
	}
	if share := float64(lowPreempts) / float64(all); share < 0.9 {
		t.Errorf("low-priority preemption share = %.3f, paper reports > 0.9", share)
	}
	// "Up to 35%" of usage wasted by kill-based preemption.
	if wf := a.WasteFraction(); wf < 0.2 || wf > 0.42 {
		t.Errorf("waste fraction = %.3f, want in the 'up to 35%%' regime [0.2, 0.42]", wf)
	}
}

func TestTimelineCoversTraceAndShowsBandGap(t *testing.T) {
	a := Analyze(generateTest(t, 30_000))
	if len(a.Timeline) < 28 {
		t.Fatalf("timeline has %d days, want ~29", len(a.Timeline))
	}
	// Fig. 1a shape: the free band's preemption rate sits far above the
	// other bands on essentially every day.
	higher := 0
	for _, pt := range a.Timeline {
		if pt.Rate[cluster.BandFree] > pt.Rate[cluster.BandMiddle] &&
			pt.Rate[cluster.BandFree] > pt.Rate[cluster.BandProduction] {
			higher++
		}
	}
	if higher < len(a.Timeline)*9/10 {
		t.Errorf("free band above others on only %d/%d days", higher, len(a.Timeline))
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a := Analyze(nil)
	if a.Tasks != 0 || a.OverallRate() != 0 || a.WasteFraction() != 0 || a.RepeatRate() != 0 || a.TenPlusRate() != 0 {
		t.Error("empty analysis should be all zeros")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	events := generateTest(t, 300)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip length %d != %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, back[i], events[i])
		}
	}
}

func TestCSVGzRoundTrip(t *testing.T) {
	events := generateTest(t, 400)
	var buf bytes.Buffer
	if err := WriteCSVGz(&buf, events); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := WriteCSV(&plain, events); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= plain.Len()/2 {
		t.Errorf("gzip trace %d bytes vs %d plain; expected substantial compression", buf.Len(), plain.Len())
	}
	back, err := ReadCSVGz(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round trip length %d != %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestReadCSVGzRejectsPlain(t *testing.T) {
	if _, err := ReadCSVGz(bytes.NewBufferString("not gzip")); err == nil {
		t.Error("plain text accepted as gzip")
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name, in, where string
	}{
		{"bad header", "nope\n", "line 1"},
		{"short row", csvHeader + "\n1,2,3\n", "line 2"},
		{"bad number", csvHeader + "\n1,2,3,4,5,2,x\n", "line 2 field 7"},
		// Each of these was read back and then panicked Analyze, or named
		// another task.
		{"event type 0", csvHeader + "\n1,0,3,4,5,2,7\n", "line 2 field 2"},
		{"index past int32", csvHeader + "\n1,2,3,4294967297,5,2,7\n", "line 2 field 4"},
		{"priority 12", csvHeader + "\n1,3,3,4,12,2,7\n", "line 2 field 5"},
		{"priority -1", csvHeader + "\n1,3,3,4,-1,2,7\n", "line 2 field 5"},
		{"latency 9", csvHeader + "\n1,2,3,4,5,9,7\n", "line 2 field 6"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadCSV(bytes.NewBufferString(tt.in))
			if err == nil || !strings.Contains(err.Error(), tt.where+":") {
				t.Errorf("ReadCSV error %v, want one naming %q", err, tt.where)
			}
		})
	}
}

// FuzzReadCSV: whatever ReadCSV accepts, WriteCSV writes back to bytes that
// read as the same events, and Analyze takes without panicking.
func FuzzReadCSV(f *testing.F) {
	events, err := Generate(GenConfig{Seed: 3, Tasks: 12, Duration: 48 * time.Hour})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(csvHeader + "\n1,3,3,4294967297,11,3,7\n"))
	f.Add([]byte(csvHeader + "\n-5,3,-1,-2,0,0,-7\n\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, events); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("read back %d events, wrote %d", len(back), len(events))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d: read back %+v, wrote %+v", i, back[i], events[i])
			}
		}
		Analyze(events)
	})
}

func TestGenerateJobsValidation(t *testing.T) {
	bad := []JobsConfig{
		{Jobs: 0, MeanTasksPerJob: 4, Span: time.Hour},
		{Jobs: 5, MeanTasksPerJob: 0, Span: time.Hour},
		{Jobs: 5, MeanTasksPerJob: 4, Span: 0},
	}
	for _, cfg := range bad {
		if _, err := GenerateJobs(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenerateJobsShape(t *testing.T) {
	cfg := DefaultJobsConfig()
	cfg.Jobs = 400
	jobs, err := GenerateJobs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 400 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	tasks := CountTasks(jobs)
	mean := float64(tasks) / float64(len(jobs))
	if mean < float64(cfg.MeanTasksPerJob)*0.6 || mean > float64(cfg.MeanTasksPerJob)*1.4 {
		t.Errorf("mean tasks/job = %.1f, want near %d", mean, cfg.MeanTasksPerJob)
	}
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			t.Fatalf("job %d invalid: %v", i, err)
		}
		if jobs[i].Submit < 0 || jobs[i].Submit >= cfg.Span {
			t.Fatalf("job %d submit %v outside span", i, jobs[i].Submit)
		}
	}
	// Band mix should roughly match the calibrated population shares.
	free := 0
	for i := range jobs {
		if jobs[i].Band() == cluster.BandFree {
			free++
		}
	}
	if share := float64(free) / float64(len(jobs)); share < 0.5 || share > 0.72 {
		t.Errorf("free-band job share = %.2f, want ~0.6", share)
	}
}

func TestGenerateJobsDeterministic(t *testing.T) {
	cfg := DefaultJobsConfig()
	cfg.Jobs = 50
	a, _ := GenerateJobs(cfg)
	b, _ := GenerateJobs(cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if len(a[i].Tasks) != len(b[i].Tasks) || a[i].Priority != b[i].Priority || a[i].Submit != b[i].Submit {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestEventTypeString(t *testing.T) {
	for typ, want := range map[EventType]string{Submit: "submit", Schedule: "schedule", Evict: "evict", Finish: "finish"} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", int(typ), typ.String())
		}
	}
}
