package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DecisionLog enforces the decision-provenance invariant behind
// cmd/explain: in the scheduler layers (internal/sched, internal/yarn),
// every function that asks Algorithm 1 for a verdict — a call to
// core.DecidePreemption — must journal that verdict in the same function
// body through the one decision appender, obs.Emitter.Decision. A
// decision that is acted on but never journaled leaves a hole in the
// journal: the kill happens, and "explain" cannot say why. (The invariant
// cannot be made structural: benchmarks outside these layers call
// core.DecidePreemption directly.)
var DecisionLog = &Analyzer{
	Name: "decisionlog",
	Doc:  "Algorithm 1 verdicts in scheduler code must be journaled (obs.Emitter.Decision)",
	Run:  runDecisionLog,
}

// decisionLogPackages are the layers that own preemption decisions and
// carry a flight recorder to journal them into.
var decisionLogPackages = []string{
	modulePrefix + "/internal/sched",
	modulePrefix + "/internal/yarn",
}

const (
	corePackage = modulePrefix + "/internal/core"
	obsPackage  = modulePrefix + "/internal/obs"
)

func runDecisionLog(pass *Pass) error {
	inScope := false
	for _, p := range decisionLogPackages {
		if pass.Pkg.Path() == p || strings.HasPrefix(pass.Pkg.Path(), p+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var decides []*ast.CallExpr
			journals := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Info, call)
				switch {
				case isPkgFunc(fn, corePackage, "DecidePreemption"):
					decides = append(decides, call)
				case isDecisionJournal(fn):
					journals = true
				}
				return true
			})
			if journals {
				continue
			}
			for _, call := range decides {
				pass.Reportf(call.Pos(), "core.DecidePreemption verdict is never journaled: call obs.Emitter.Decision in the same function so cmd/explain can reconstruct it")
			}
		}
	}
	return nil
}

// isDecisionJournal reports whether fn writes the verdict to the
// provenance journal: the flight recorder's decision appender.
func isDecisionJournal(fn *types.Func) bool {
	return fn != nil && fn.Name() == "Decision" && typeIs(recvType(fn), obsPackage, "Emitter")
}
