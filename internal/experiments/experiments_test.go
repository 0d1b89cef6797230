package experiments

import (
	"strconv"
	"strings"
	"testing"

	"preemptsched/internal/metrics"
)

// testOptions shrinks inputs further than Default so the whole suite stays
// fast under `go test`.
func testOptions() Options {
	o := Default()
	o.TraceTasks = 8_000
	o.SimJobs = 250
	o.SimTasksPerJob = 4
	o.YarnJobs = 9
	o.YarnTasks = 90
	return o
}

// cell parses table cell (r, c) as a float.
func cell(t *testing.T, tb *metrics.Table, r, c int) float64 {
	t.Helper()
	if r >= len(tb.Rows) || c >= len(tb.Rows[r]) {
		t.Fatalf("table %q has no cell (%d,%d)", tb.Title, r, c)
	}
	v, err := strconv.ParseFloat(tb.Rows[r][c], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", r, c, tb.Rows[r][c], err)
	}
	return v
}

func TestOptionsValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	if err := PaperScale().Validate(); err != nil {
		t.Errorf("paper-scale options invalid: %v", err)
	}
	bad := Default()
	bad.SimJobs = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestExtensionTables(t *testing.T) {
	o := testOptions()
	disc, err := ExtDisciplines(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(disc.Rows) != 3 {
		t.Fatalf("disciplines rows = %d", len(disc.Rows))
	}
	// Fairness index must be in (0, 1].
	for r := range disc.Rows {
		if f := cell(t, disc, r, 4); f <= 0 || f > 1 {
			t.Errorf("%s fairness index %v out of range", disc.Rows[r][0], f)
		}
	}
	pre, err := ExtPreCopy(o)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-copy overhead is decisively lower where dumps are slow (HDD, the
	// first row pair); on fast media the absolute numbers are tiny and
	// scheduling noise dominates, so no ordering is asserted there.
	if cell(t, pre, 1, 3) >= cell(t, pre, 0, 3) {
		t.Errorf("HDD: pre-copy overhead %v not below stop-and-copy %v",
			cell(t, pre, 1, 3), cell(t, pre, 0, 3))
	}
	nv, err := ExtNVRAM(o)
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, nv, 1, 3) >= cell(t, nv, 0, 3) {
		t.Errorf("NVRAM device hours %v not below PMFS %v", cell(t, nv, 1, 3), cell(t, nv, 0, 3))
	}
	ev, err := ExtEvictionThreshold(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Rows) != 4 {
		t.Fatalf("eviction rows = %d", len(ev.Rows))
	}
	// Capping evictions can only reduce preemption count.
	if cell(t, ev, 1, 4) > cell(t, ev, 0, 4) {
		t.Errorf("cap 1 preemptions %v above unlimited %v", cell(t, ev, 1, 4), cell(t, ev, 0, 4))
	}
	churn, err := ExtNodeChurn(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(churn.Rows) != 3 {
		t.Fatalf("node churn rows = %d", len(churn.Rows))
	}
	for r := range churn.Rows {
		policy := churn.Rows[r][0]
		if f := cell(t, churn, r, 1); f != 2 {
			t.Errorf("%s: node failures %v, want the 2 seeded outages", policy, f)
		}
		// Every displaced task is accounted once: it either resumed from a
		// checkpoint image or restarted from scratch.
		if resched, acc := cell(t, churn, r, 2), cell(t, churn, r, 3)+cell(t, churn, r, 4); resched != acc {
			t.Errorf("%s: rescheduled %v != restores+restarts %v", policy, resched, acc)
		}
		if fw, w := cell(t, churn, r, 5), cell(t, churn, r, 6); fw > w+1e-9 {
			t.Errorf("%s: failure waste %v exceeds total waste %v", policy, fw, w)
		}
	}
	// Kill discards checkpointing entirely, so nothing can resume from an
	// image after an outage.
	if f := cell(t, churn, 0, 3); f != 0 {
		t.Errorf("kill policy reported %v failure restores", f)
	}
}

func TestRunAllRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in short mode")
	}
	var sb strings.Builder
	if err := RunAll(testOptions(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Fig 1a", "Fig 1b", "Fig 1c", "Table 1", "Table 2",
		"Fig 2a", "Fig 2b", "Fig 3a", "Fig 3b", "Fig 3c",
		"Fig 4a", "Fig 6a", "Table 3", "Fig 5",
		"Fig 8a", "Fig 8b", "Fig 8c", "Fig 9", "Fig 10", "Fig 11", "Fig 12a", "Fig 12b",
		"Ext — Node churn",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
