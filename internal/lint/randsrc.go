package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RandSrc enforces the randomness half of the determinism contract
// (DESIGN.md §11/§15): code in the module's deterministic core draws
// every random number from a seeded *rand.Rand threaded in from
// configuration (sim.NewRNG, faults.Plan.Seed, clusterd's WithSeed),
// never from math/rand's process-global source and never from a source
// seeded off the wall clock. One global rand.Intn in a victim-selection
// tiebreak makes the byte-identical replay suite pass or fail by
// coincidence: the global source is shared across goroutines, so the
// draw sequence depends on scheduling, and a time-derived seed cannot be
// written into the run report and replayed.
//
// The seed rule also holds at the other end of the thread, in every
// package: no struct's Seed field (faults.Plan, workload and trace
// configs, density specs) is set from the wall clock, in a composite
// literal or by assignment. Those seeds come from cmd/ flags, which is
// why this rule, unlike the global-source one, is not scoped to
// internal/.
var RandSrc = &Analyzer{
	Name: "randsrc",
	Doc:  "deterministic packages draw randomness from a seeded *rand.Rand, never the global math/rand source; no source or Seed field is set from the wall clock",
	Run:  runRandSrc,
}

// randPkgs are the randomness providers the analyzer polices. Both
// generations of math/rand share the global-source design flaw.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// randConstructors build explicit sources rather than drawing from the
// global one; they are the sanctioned entry points, checked only for
// wall-clock seeds.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// randSrcInScope reports whether the package is part of the
// deterministic core: the root simulation package and everything under
// internal/. cmd/ binaries are thin flag-parsing shells over internal
// packages, so scoping to internal/ covers every code path a seeded run
// replays.
func randSrcInScope(path string) bool {
	return path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/internal/")
}

func runRandSrc(pass *Pass) error {
	inScope := randSrcInScope(pass.Pkg.Path())
	// seen dedupes wall-clock seeds visible from nested constructors:
	// rand.New(rand.NewSource(time.Now().UnixNano())) is one finding.
	seen := make(map[token.Pos]bool)
	wallClock := func(e ast.Expr, msg string) {
		if pos, src := wallClockSource(pass.Info, e); src != "" && !seen[pos] {
			seen[pos] = true
			pass.Reportf(pos, msg, src)
		}
	}
	const seedMsg = "Seed derived from %s: a wall-clock seed cannot be recorded and replayed — use a fixed literal or a flag"
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && isSeedField(pass.Info, kv.Key) {
						wallClock(kv.Value, seedMsg)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && isSeedField(pass.Info, sel.Sel) {
						wallClock(n.Rhs[i], seedMsg)
					}
				}
			case *ast.CallExpr:
				if inScope {
					checkRandCall(pass, n, wallClock)
				}
			}
			return true
		})
	}
	return nil
}

// checkRandCall flags a draw from the global source, and a wall-clock
// seed handed to a source constructor.
func checkRandCall(pass *Pass, call *ast.CallExpr, wallClock func(ast.Expr, string)) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || !randPkgs[fn.Pkg().Path()] {
		return
	}
	if recvType(fn) != nil {
		// Methods on *rand.Rand / rand.Source: drawing from an explicit
		// source is the sanctioned pattern.
		return
	}
	if !randConstructors[fn.Name()] {
		pass.Reportf(call.Pos(), "rand.%s draws from the process-global source: the draw sequence depends on goroutine scheduling and cannot be replayed — thread a seeded *rand.Rand from config (sim.NewRNG)", fn.Name())
		return
	}
	for _, arg := range call.Args {
		wallClock(arg, "rand source seeded from %s: a wall-clock seed cannot be recorded and replayed — use a fixed literal, a flag, or a forked sim.RNG")
	}
}

// isSeedField reports whether e names a struct field called Seed (a
// Seed key in a map literal names a variable, and is not one).
func isSeedField(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name != "Seed" {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	return ok && v.IsField()
}

// wallClockSource finds a time.Now-family call inside e, returning its
// position and name.
func wallClockSource(info *types.Info, e ast.Expr) (pos token.Pos, name string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			return true
		}
		switch fn.Name() {
		case "Now", "Since", "Until":
			pos, name = sel.Pos(), "time."+fn.Name()
		}
		return name == ""
	})
	return pos, name
}
