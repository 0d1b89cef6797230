package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The analyzer tests share one loader so the standard library and the
// module's real packages are type-checked once per `go test` run.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderRoot string
	loaderErr  error
)

func testLoader(t *testing.T) (*Loader, string) {
	t.Helper()
	loaderOnce.Do(func() {
		loaderRoot, loaderErr = ModuleRoot(".")
		if loaderErr != nil {
			return
		}
		var modPath string
		modPath, loaderErr = ModulePath(loaderRoot)
		if loaderErr != nil {
			return
		}
		loaderVal = NewLoader(loaderRoot, modPath)
	})
	if loaderErr != nil {
		t.Fatalf("test loader: %v", loaderErr)
	}
	return loaderVal, loaderRoot
}

// tdPkg names one testdata package: its directory under
// testdata/src and the import path to type-check it under (testdata is
// invisible to `go list` by design, so the path is free to impersonate
// scoped packages like preemptsched/internal/sched).
type tdPkg struct{ dir, path string }

func loadTestdata(t *testing.T, pkgs []tdPkg) []*Unit {
	t.Helper()
	l, root := testLoader(t)
	units := make([]*Unit, 0, len(pkgs))
	for _, p := range pkgs {
		u, err := l.LoadDir(filepath.Join(root, "internal", "lint", "testdata", "src", p.dir), p.path)
		if err != nil {
			t.Fatalf("load testdata %s: %v", p.dir, err)
		}
		units = append(units, u)
	}
	return units
}

// want is one expectation parsed from a `// want "substring"` comment.
type want struct {
	file   string
	line   int
	substr string
	hit    bool
}

var wantRE = regexp.MustCompile(`^// want "(.*)"$`)

func collectWants(units []*Unit) []*want {
	var wants []*want
	for _, u := range units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := u.Fset.Position(c.Pos())
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}

// checkDiagnostics asserts diags and the `// want` markers in units
// agree exactly: every diagnostic matched by a marker on its line, every
// marker hit.
func checkDiagnostics(t *testing.T, units []*Unit, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(units)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", filepath.Base(w.file), w.line, w.substr)
		}
	}
}

func runAnalyzerGolden(t *testing.T, a *Analyzer, pkgs []tdPkg) {
	t.Helper()
	units := loadTestdata(t, pkgs)
	diags, err := Run(units, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	for _, d := range diags {
		if d.Analyzer != a.Name {
			t.Errorf("diagnostic from unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	checkDiagnostics(t, units, diags)
}

func TestVClock(t *testing.T) {
	runAnalyzerGolden(t, VClock, []tdPkg{
		{"vclock/sched", "preemptsched/internal/sched"},
		{"vclock/outside", "vclocktest/outside"},
	})
}

func TestSentinelErr(t *testing.T) {
	runAnalyzerGolden(t, SentinelErr, []tdPkg{
		{"sentinelerr/a", "sentineltest/a"},
	})
}

func TestLockIO(t *testing.T) {
	runAnalyzerGolden(t, LockIO, []tdPkg{
		{"lockio/a", "lockiotest/a"},
	})
}

func TestMetricName(t *testing.T) {
	runAnalyzerGolden(t, MetricName, []tdPkg{
		{"metricname/a", "metricnametest/a"},
		{"metricname/b", "metricnametest/b"},
	})
}

func TestCtxLeak(t *testing.T) {
	runAnalyzerGolden(t, CtxLeak, []tdPkg{
		{"ctxleak/dfs", "preemptsched/internal/dfs"},
		{"ctxleak/clusterd", "preemptsched/internal/clusterd"},
	})
}

func TestMapIter(t *testing.T) {
	runAnalyzerGolden(t, MapIter, []tdPkg{
		{"mapiter/a", "mapitertest/a"},
	})
}

func TestRandSrc(t *testing.T) {
	runAnalyzerGolden(t, RandSrc, []tdPkg{
		{"randsrc/sched", "preemptsched/internal/sched"},
		{"randsrc/outside", "randsrctest/outside"},
	})
}

func TestFloatOrder(t *testing.T) {
	runAnalyzerGolden(t, FloatOrder, []tdPkg{
		{"floatorder/a", "floatordertest/a"},
	})
}

// TestAnalyzerMetadata keeps the suite's registry well-formed: unique
// lower-case names and non-empty docs, since both feed the suppression
// directives and the usage string.
func TestAnalyzerMetadata(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range All() {
		if a.Name == "" || a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be non-empty lower-case with no spaces", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
	if got := fmt.Sprintf("%d", len(All())); got != "8" {
		t.Errorf("expected the eight-analyzer suite, got %s", got)
	}
}
