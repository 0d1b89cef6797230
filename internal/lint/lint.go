// Package lint is a repo-specific static-analysis suite ("preemptlint")
// that proves, on every build, the invariants the chaos tests can only
// sample: simulator code stays on the virtual clock, DFS sentinel errors
// are matched with errors.Is (wire-decoded errors arrive wrapped), mutexes
// are not held across Transport/Store/network I/O, metric names are
// registered dot-separated constants, goroutines in the long-running
// layers have a cancellation path, and map order, the global random
// source, wall-clock seeds and float addend order never reach a
// deterministic artifact. An invariant that a tier-1 test or a runtime
// validation already fails on has no analyzer here (DESIGN.md §10).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard
// library (go/ast, go/types, and the gc source importer) so the module
// keeps its zero-dependency property. Packages are loaded and
// type-checked from source by the loader in load.go; cmd/preemptlint is
// the multichecker driver.
//
// Suppression: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// suppresses matching diagnostics on the same line, or — when the comment
// stands alone on its line — on the following line. The reason is
// mandatory; a directive without one is itself reported (see ignore.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	// Analyzer is the name of the analyzer that produced the finding
	// (or "lint" for framework-level findings such as malformed
	// suppression directives).
	Analyzer string `json:"analyzer"`
	// Pos locates the finding.
	Pos token.Position `json:"-"`
	// Message states the violated invariant at this site.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one type-checked package and reports findings
	// through the pass.
	Run func(*Pass) error
	// AfterAll, when set, runs once after every package has been
	// analyzed — the hook module-wide checks (e.g. duplicate metric
	// registrations across packages) report from. State is accumulated
	// in the run's Shared map during Run.
	AfterAll func(sh *Shared, report func(token.Position, string))
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type information recorded while checking Files.
	Info *types.Info
	// Shared is the cross-package accumulator for module-wide checks,
	// shared by every pass of one run.
	Shared *Shared

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Shared is a keyed scratch space analyzers use to accumulate
// module-wide state across packages. Packages are analyzed sequentially,
// so no locking is needed.
type Shared struct {
	vals map[string]any
}

// Get returns the value stored under key, or nil.
func (s *Shared) Get(key string) any { return s.vals[key] }

// Put stores v under key.
func (s *Shared) Put(key string, v any) { s.vals[key] = v }

// Run applies every analyzer to every unit, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
// Framework-level diagnostics (malformed directives) are included.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	sh := &Shared{vals: make(map[string]any)}
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }

	for _, u := range units {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     u.Fset,
				Files:    u.Files,
				Pkg:      u.Pkg,
				Info:     u.Info,
				Shared:   sh,
				report:   collect,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, u.Pkg.Path(), err)
			}
		}
	}
	for _, a := range analyzers {
		if a.AfterAll == nil {
			continue
		}
		name := a.Name
		a.AfterAll(sh, func(pos token.Position, msg string) {
			collect(Diagnostic{Analyzer: name, Pos: pos, Message: msg})
		})
	}

	idx := buildIgnoreIndex(units)
	kept := diags[:0]
	for _, d := range diags {
		if !idx.suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, idx.malformed...)
	kept = append(kept, idx.staleDirectives(nameSet(All()), nameSet(analyzers))...)

	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept, nil
}

// nameSet is the set of the analyzers' names.
func nameSet(analyzers []*Analyzer) map[string]bool {
	set := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		set[a.Name] = true
	}
	return set
}

// Names returns the analyzer names joined for usage strings.
func Names(analyzers []*Analyzer) string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
