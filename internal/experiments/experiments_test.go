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

func TestSection2Tables(t *testing.T) {
	o := testOptions()
	tb, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(tb.Rows))
	}
	// Free band preempted far more than middle band.
	if cell(t, tb, 0, 2) < 10*cell(t, tb, 1, 2) {
		t.Errorf("free-band rate %v not >> middle %v", tb.Rows[0][2], tb.Rows[1][2])
	}
	tb, err = Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table2 rows = %d", len(tb.Rows))
	}

	f1a, err := Fig1a(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1a.Rows) < 28 {
		t.Errorf("Fig1a has %d days", len(f1a.Rows))
	}
	f1b, err := Fig1b(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1b.Rows) != 12 {
		t.Errorf("Fig1b rows = %d", len(f1b.Rows))
	}
	if cell(t, f1b, 0, 1)+cell(t, f1b, 1, 1) < 90 {
		t.Error("priorities 0-1 should hold >90% of preemptions")
	}
	f1c, err := Fig1c(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1c.Rows) != 10 {
		t.Errorf("Fig1c rows = %d", len(f1c.Rows))
	}
	// Single eviction dominates.
	if cell(t, f1c, 0, 1) <= cell(t, f1c, 1, 1) {
		t.Error("one-eviction bucket should dominate")
	}
}

func TestFig2Shapes(t *testing.T) {
	o := testOptions()
	local, err := Fig2a(o)
	if err != nil {
		t.Fatal(err)
	}
	last := len(local.Rows) - 1
	hdd, ssd, nvm := cell(t, local, last, 1), cell(t, local, last, 2), cell(t, local, last, 3)
	if !(hdd > ssd && ssd > nvm) {
		t.Errorf("Fig2a ordering broken: %v %v %v", hdd, ssd, nvm)
	}
	if r := hdd / ssd; r < 2.5 || r > 5 {
		t.Errorf("HDD/SSD ratio %v, want 3-4x", r)
	}
	if r := ssd / nvm; r < 8 || r > 20 {
		t.Errorf("SSD/NVM ratio %v, want 10-15x", r)
	}
	// Time grows monotonically with size.
	for c := 1; c <= 3; c++ {
		for r := 1; r < len(local.Rows); r++ {
			if cell(t, local, r, c) < cell(t, local, r-1, c) {
				t.Fatalf("Fig2a column %d not monotone", c)
			}
		}
	}
	dfs, err := Fig2b(o)
	if err != nil {
		t.Fatal(err)
	}
	// DFS is slower than local for every device and size.
	for r := 1; r < len(dfs.Rows); r++ {
		for c := 1; c <= 3; c++ {
			if cell(t, dfs, r, c) <= cell(t, local, r, c) {
				t.Errorf("DFS faster than local at row %d col %d", r, c)
			}
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tb, err := Table3(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for r := 0; r < 3; r++ {
		first, second := cell(t, tb, r, 1), cell(t, tb, r, 2)
		if first < 8*second {
			t.Errorf("%s: incremental dump %.2fs not ~10x faster than full %.2fs", tb.Rows[r][0], second, first)
		}
		// Within 25% of the paper's measured numbers.
		paperFirst := cell(t, tb, r, 3)
		if first < paperFirst*0.75 || first > paperFirst*1.25 {
			t.Errorf("%s: first dump %.2fs vs paper %.2fs", tb.Rows[r][0], first, paperFirst)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	o := testOptions()
	tb, err := Fig3a(o)
	if err != nil {
		t.Fatal(err)
	}
	kill := cell(t, tb, 0, 1)
	chkSSD := cell(t, tb, 2, 1)
	chkNVM := cell(t, tb, 3, 1)
	if !(kill > chkSSD && chkSSD > chkNVM) {
		t.Errorf("wastage ordering broken: kill=%v ssd=%v nvm=%v", kill, chkSSD, chkNVM)
	}
	f3c, err := Fig3c(o)
	if err != nil {
		t.Fatal(err)
	}
	// Low-priority jobs improve under checkpointing on every medium.
	for r := 1; r < len(f3c.Rows); r++ {
		if cell(t, f3c, r, 1) >= 1.0 {
			t.Errorf("%s: low-priority normalized response %v >= 1", f3c.Rows[r][0], f3c.Rows[r][1])
		}
	}
	// High-priority jobs on NVM stay comparable to kill (within 10%).
	if v := cell(t, f3c, 3, 3); v > 1.1 {
		t.Errorf("NVM high-priority normalized response %v > 1.1", v)
	}
}

func TestFig4And6Shapes(t *testing.T) {
	o := testOptions()
	high, low, energyT, err := Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(high.Rows) != len(sensitivityBandwidths) {
		t.Fatalf("rows = %d", len(high.Rows))
	}
	// Kill is always best for the high-priority job (column 2 == 1.0) and
	// wait always worst.
	for r := range high.Rows {
		wait, kill, chk := cell(t, high, r, 1), cell(t, high, r, 2), cell(t, high, r, 3)
		if kill != 1.0 {
			t.Errorf("row %d: kill normalization %v != 1", r, kill)
		}
		if wait < kill {
			t.Errorf("row %d: wait %v better than kill for high job", r, wait)
		}
		_ = chk
	}
	// Checkpointing approaches kill as bandwidth grows (monotone
	// improvement for the high job).
	for r := 1; r < len(high.Rows); r++ {
		if cell(t, high, r, 3) > cell(t, high, r-1, 3)+1e-9 {
			t.Errorf("checkpoint high-priority response not improving with bandwidth")
		}
	}
	// Low-priority job: checkpoint beats kill at every bandwidth.
	for r := range low.Rows {
		if cell(t, low, r, 3) >= cell(t, low, r, 2) {
			t.Errorf("row %d: checkpoint low %v not better than kill", r, cell(t, low, r, 3))
		}
	}

	high6, _, energy6, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive (col 4) never worse than basic checkpoint (col 3) for the
	// high-priority job, and never worse than the worse of kill/wait.
	for r := range high6.Rows {
		if cell(t, high6, r, 4) > cell(t, high6, r, 3)+1e-9 {
			t.Errorf("row %d: adaptive %v worse than basic %v", r, cell(t, high6, r, 4), cell(t, high6, r, 3))
		}
	}
	// Adaptive energy never worse than kill.
	for r := range energy6.Rows {
		if cell(t, energy6, r, 4) > cell(t, energy6, r, 2)+1e-9 {
			t.Errorf("row %d: adaptive energy %v worse than kill %v", r, cell(t, energy6, r, 4), cell(t, energy6, r, 2))
		}
	}
	_ = energyT
}

func TestFig5Shape(t *testing.T) {
	tb, err := Fig5(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Adaptive rows: every band at most ~1.05x basic.
	for r := 1; r < len(tb.Rows); r += 2 {
		for c := 2; c <= 4; c++ {
			if cell(t, tb, r, c) > 1.05 {
				t.Errorf("adaptive %s col %d = %v worse than basic", tb.Rows[r][0], c, cell(t, tb, r, c))
			}
		}
	}
}

func TestFig8ToFig12Shapes(t *testing.T) {
	o := testOptions()
	f8a, err := Fig8a(o)
	if err != nil {
		t.Fatal(err)
	}
	kill := cell(t, f8a, 0, 1)
	nvm := cell(t, f8a, 3, 1)
	if kill <= nvm {
		t.Errorf("kill wastage %v <= checkpoint-NVM %v", kill, nvm)
	}
	if kill == 0 {
		t.Error("no contention in framework experiment")
	}

	f8c, err := Fig8c(o)
	if err != nil {
		t.Fatal(err)
	}
	// NVM low-priority response beats kill.
	if cell(t, f8c, 3, 1) >= cell(t, f8c, 0, 1) {
		t.Errorf("NVM low response %v not better than kill %v", cell(t, f8c, 3, 1), cell(t, f8c, 0, 1))
	}

	f10, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	// Adaptive never meaningfully worse than basic (rows alternate
	// basic/adaptive per storage). High-priority is strict; low-priority
	// gets 10% slack because at test scale a single extra kill shifts the
	// small-sample mean.
	for r := 0; r < len(f10.Rows); r += 2 {
		if cell(t, f10, r+1, 2) > cell(t, f10, r, 2)*1.10+1e-9 {
			t.Errorf("storage %s: adaptive low %v far worse than basic %v",
				f10.Rows[r][0], cell(t, f10, r+1, 2), cell(t, f10, r, 2))
		}
		if cell(t, f10, r+1, 3) > cell(t, f10, r, 3)*1.02+1e-9 {
			t.Errorf("storage %s: adaptive high %v worse than basic %v",
				f10.Rows[r][0], cell(t, f10, r+1, 3), cell(t, f10, r, 3))
		}
	}

	cpuT, ioT, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	// Overheads shrink with faster storage and adaptive never exceeds
	// basic meaningfully.
	if cell(t, cpuT, 0, 1) <= cell(t, cpuT, 2, 1) {
		t.Errorf("HDD CPU overhead %v not above NVM %v", cell(t, cpuT, 0, 1), cell(t, cpuT, 2, 1))
	}
	for r := 0; r < 3; r++ {
		if cell(t, ioT, r, 2) > cell(t, ioT, r, 1)+0.5 {
			t.Errorf("%s: adaptive I/O overhead above basic", ioT.Rows[r][0])
		}
	}

	f9, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Rows) != 10 || len(f9.Columns) != 5 {
		t.Errorf("Fig9 shape %dx%d", len(f9.Rows), len(f9.Columns))
	}
	f11, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11) != 3 {
		t.Errorf("Fig11 panels = %d", len(f11))
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
