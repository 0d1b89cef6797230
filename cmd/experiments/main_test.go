package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runOK drives the command and fails the test on an error.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("experiments %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// number returns the float captured by re's first group in s.
func number(t *testing.T, re, s string) float64 {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("no match for %q in:\n%s", re, s)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestTraceInAnalyzesTheFile: the tables of `trace -in F` describe F,
// not the trace -seed would generate.
func TestTraceInAnalyzesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv.gz")
	dumped := runOK(t, "trace", "-seed", "2", "-tasks", "5000", "-dump", path)
	read := runOK(t, "trace", "-in", path, "-seed", "1")

	header := number(t, `preempted: \d+ \(([\d.]+)%\)`, read)
	overall := number(t, `(?m)^overall\s+\d+\s+([\d.]+)`, read)
	if math.Abs(header-overall) > 0.051 {
		t.Errorf("Table 1 overall row says %.2f%% preempted, the header %.1f%%: the tables describe another trace", overall, header)
	}
	if want := strings.SplitN(dumped, "\n", 2)[1]; read != want {
		t.Errorf("analysis of the dumped file differs from the analysis it was dumped with:\n--- read\n%s\n--- dumped\n%s", read, want)
	}
}

// TestTraceDefaultMatchesReport: the default trace renders the report's
// five Section 2 tables byte for byte.
func TestTraceDefaultMatchesReport(t *testing.T) {
	golden, err := os.ReadFile("../../report_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(golden), "# Section 2 — Google-trace analysis (calibrated synthetic trace)\n")
	section, _, ok2 := strings.Cut(section, "# Section 3.3.1")
	if !ok || !ok2 {
		t.Fatal("report_default.txt has no Section 2")
	}
	_, tables, _ := strings.Cut(runOK(t, "trace"), "\n\n")
	if tables != section {
		t.Errorf("trace tables differ from report_default.txt's Section 2:\n--- trace\n%s\n--- report\n%s", tables, section)
	}
}

// TestSimIsFig3ChkSSD: sim's defaults are the report's workload and
// sizing, so its checkpoint/SSD run is Fig. 3a/3b's Chk-SSD row.
func TestSimIsFig3ChkSSD(t *testing.T) {
	golden, err := os.ReadFile("../../report_default.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "sim", "-policy", "checkpoint", "-storage", "ssd")
	for _, c := range []struct{ fig, line string }{
		{"Fig 3a", `wasted CPU:\s+([\d.]+) core-hours`},
		{"Fig 3b", `energy:\s+([\d.]+) kWh`},
	} {
		_, table, _ := strings.Cut(string(golden), "== "+c.fig+" ")
		want := number(t, `(?m)^Chk-SSD\s+([\d.]+)`, table)
		// sim prints one decimal, the report up to two.
		if got := number(t, c.line, out); math.Abs(got-want) > 0.051 {
			t.Errorf("%s: sim reports %.1f, the report's Chk-SSD row %.2f", c.fig, got, want)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"simtrace"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), `"simtrace"`) {
		t.Fatalf("err = %v, want an unknown-subcommand error naming it", err)
	}
	if !strings.Contains(stderr.String(), "usage: experiments") {
		t.Errorf("no usage message on stderr:\n%s", stderr.String())
	}
}

// TestDensityCustomSizesNeedNodes: -tasks and -jobs size only a custom
// cell, so without -nodes they are refused instead of running the full
// ladder.
func TestDensityCustomSizesNeedNodes(t *testing.T) {
	for _, flag := range []string{"-tasks", "-jobs"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"density", flag, "5000"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-nodes") {
			t.Errorf("density %s 5000: err = %v, want one naming -nodes", flag, err)
		}
		if stdout.Len() > 0 {
			t.Errorf("density %s 5000 ran cells:\n%s", flag, stdout.String())
		}
	}
}

// TestDensityJSONToStdout: with -json - stdout is the JSON alone; the
// rendered report goes to stderr.
func TestDensityJSONToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"density", "-nodes", "100", "-tasks", "5000", "-stable", "-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var cells []struct {
		Name      string `json:"name"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &cells); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if len(cells) != 1 || cells[0].Name != "custom-100n" || cells[0].Completed != 5000 {
		t.Errorf("cells = %+v, want one custom-100n cell with 5000 tasks completed", cells)
	}
	if !strings.Contains(stderr.String(), "cell custom-100n") {
		t.Errorf("rendered report missing from stderr:\n%s", stderr.String())
	}
}
