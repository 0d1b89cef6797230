package lint

import (
	"os"
	"strings"
	"testing"
)

// TestIgnoreDirectives exercises the //lint:ignore contract end to end
// on testdata/src/ignore/a: same-line and standalone next-line
// suppression remove findings, a directive naming a different analyzer
// does not (and is reported stale), a trailing directive covers only
// its own line, and a directive without a reason is itself a
// diagnostic.
func TestIgnoreDirectives(t *testing.T) {
	units := loadTestdata(t, []tdPkg{{"ignore/a", "ignoretest/a"}})
	diags, err := Run(units, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var sentinel, malformed, stale []Diagnostic
	for _, d := range diags {
		switch {
		case d.Analyzer == "sentinelerr":
			sentinel = append(sentinel, d)
		case d.Analyzer == "lint" && strings.Contains(d.Message, "stale"):
			stale = append(stale, d)
		case d.Analyzer == "lint":
			malformed = append(malformed, d)
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}

	// Two sentinelerr findings survive: the one under a directive naming
	// another analyzer, and the one on the line after a trailing (non
	// standalone) directive. All properly suppressed ones are gone.
	if len(sentinel) != 2 {
		t.Fatalf("sentinelerr diagnostics = %d, want 2:\n%s", len(sentinel), renderDiags(diags))
	}
	for _, d := range sentinel {
		src := sourceLine(t, d.Pos.Filename, d.Pos.Line)
		if strings.Contains(src, "//lint:ignore sentinelerr") {
			t.Errorf("finding survived on a line carrying its own directive: %s", d)
		}
	}

	// The reasonless directive is exactly one framework diagnostic.
	if len(malformed) != 1 {
		t.Fatalf("malformed-directive diagnostics = %d, want 1:\n%s", len(malformed), renderDiags(diags))
	}
	if !strings.Contains(malformed[0].Message, "the reason is mandatory") {
		t.Errorf("malformed message %q should say the reason is mandatory", malformed[0].Message)
	}
	if src := sourceLine(t, malformed[0].Pos.Filename, malformed[0].Pos.Line); !strings.Contains(src, "//lint:ignore sentinelerr") {
		t.Errorf("malformed diagnostic points at %q, want the reasonless directive line", src)
	}

	// The directive naming metricname suppresses nothing, so it is the
	// one stale directive in the package.
	if len(stale) != 1 {
		t.Fatalf("stale-directive diagnostics = %d, want 1:\n%s", len(stale), renderDiags(diags))
	}
	if src := sourceLine(t, stale[0].Pos.Filename, stale[0].Pos.Line); !strings.Contains(src, "//lint:ignore metricname") {
		t.Errorf("stale diagnostic points at %q, want the metricname directive line", src)
	}
}

// TestIgnoreSentry exercises the directive contract against the
// determinism-sentry analyzers on testdata/src/ignore/sentry: same-line
// coverage of a randsrc finding; a directive in a declaration's doc
// comment that no longer covers the body, so the mapiter finding there is
// reported and the directive is stale; and a floatorder directive that
// suppresses nothing and must be reported stale.
func TestIgnoreSentry(t *testing.T) {
	units := loadTestdata(t, []tdPkg{{"ignore/sentry", "preemptsched/internal/sched"}})
	diags, err := Run(units, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var stale, mapiter []Diagnostic
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "stale"):
			stale = append(stale, d)
		case d.Analyzer == "mapiter":
			mapiter = append(mapiter, d)
		default:
			t.Errorf("diagnostic leaked through suppression: %s", d)
		}
	}
	if len(mapiter) != 1 {
		t.Fatalf("mapiter diagnostics = %d, want the one in keys' body:\n%s", len(mapiter), renderDiags(diags))
	}
	if src := sourceLine(t, mapiter[0].Pos.Filename, mapiter[0].Pos.Line); !strings.Contains(src, "append(out, k)") {
		t.Errorf("mapiter diagnostic points at %q, want keys' append", src)
	}
	if len(stale) != 2 {
		t.Fatalf("stale-directive diagnostics = %d, want 2:\n%s", len(stale), renderDiags(diags))
	}
	for i, want := range []string{"//lint:ignore mapiter", "//lint:ignore floatorder"} {
		if src := sourceLine(t, stale[i].Pos.Filename, stale[i].Pos.Line); !strings.Contains(src, want) {
			t.Errorf("stale diagnostic %d points at %q, want the %s directive line", i, src, want)
		}
	}
}

// runUnknown lints testdata/src/ignore/unknown with sentinelerr alone: a
// partial run, so neither of its directives names an analyzer that ran.
func runUnknown(t *testing.T) []Diagnostic {
	t.Helper()
	diags, err := Run(loadTestdata(t, []tdPkg{{"ignore/unknown", "ignoretest/unknown"}}), []*Analyzer{SentinelErr})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return diags
}

// TestIgnoreUnknownAnalyzerReported: a directive naming an analyzer the
// suite does not have is reported even by a partial run, since no run
// could ever judge it.
func TestIgnoreUnknownAnalyzerReported(t *testing.T) {
	var unknown []Diagnostic
	for _, d := range runUnknown(t) {
		if d.Analyzer == "lint" && strings.Contains(d.Message, "unknown analyzer metricnmae") {
			unknown = append(unknown, d)
		}
	}
	if len(unknown) != 1 {
		t.Fatalf("unknown-analyzer diagnostics = %d, want 1", len(unknown))
	}
	if src := sourceLine(t, unknown[0].Pos.Filename, unknown[0].Pos.Line); !strings.Contains(src, "//lint:ignore metricnmae") {
		t.Errorf("unknown-analyzer diagnostic points at %q, want the misspelled directive", src)
	}
}

// TestIgnoreKnownAnalyzerOutsideRunLeftAlone: a directive naming a real
// analyzer that did not run stays unjudged.
func TestIgnoreKnownAnalyzerOutsideRunLeftAlone(t *testing.T) {
	for _, d := range runUnknown(t) {
		if src := sourceLine(t, d.Pos.Filename, d.Pos.Line); strings.Contains(src, "//lint:ignore vclock") {
			t.Errorf("a partial run judged a directive for an analyzer it did not execute: %s", d)
		}
	}
}

// TestIgnoreSuppressedLinesAbsent is the structural counterpart: no
// diagnostic surviving Run may be one the ignore index considers
// suppressed.
func TestIgnoreSuppressedLinesAbsent(t *testing.T) {
	units := loadTestdata(t, []tdPkg{{"ignore/a", "ignoretest/a"}})
	diags, err := Run(units, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	idx := buildIgnoreIndex(units)
	for _, d := range diags {
		if d.Analyzer == "lint" {
			continue
		}
		if idx.suppressed(d) {
			t.Errorf("suppressed diagnostic leaked through Run: %s", d)
		}
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func sourceLine(t *testing.T, file string, line int) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	lines := strings.Split(string(data), "\n")
	if line < 1 || line > len(lines) {
		t.Fatalf("%s has no line %d", file, line)
	}
	return lines[line-1]
}
