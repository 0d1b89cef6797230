package lint

import (
	"go/ast"
	"go/types"
)

// CtxLeak flags goroutines started in the long-running server packages
// (internal/dfs, internal/yarn, internal/obs, internal/clusterd,
// internal/wire) that have no cancellation path: no context.Context in
// reach, no channel to select or receive on, and no WaitGroup tracking
// their lifetime. Such goroutines outlive Close/Shutdown, keep listeners
// and timers alive across test cases, and are exactly the leak the -race
// chaos runs intermittently trip over.
//
// It also flags time.Sleep calls inside for-loops that observe no
// cancellation signal — the classic fixed-delay retry/poll loop. A
// draining daemon cannot interrupt such a loop; it must ride out every
// remaining sleep. The loop needs a select on a stop channel, a
// context check, or core.Sleep(ctx, d).
//
// The check is a reachability heuristic, not an escape analysis: a
// goroutine is considered cancellable if its body (or, for named
// functions, its signature or arguments) mentions a context, touches any
// channel, or participates in a WaitGroup.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "goroutines and sleep loops in server packages need a cancellation path (context, channel, or WaitGroup)",
	Run:  runCtxLeak,
}

// ctxLeakPackages are the long-running server packages where an
// unstoppable goroutine is a lifecycle bug rather than a scoped helper.
var ctxLeakPackages = map[string]bool{
	modulePrefix + "/internal/dfs":      true,
	modulePrefix + "/internal/yarn":     true,
	modulePrefix + "/internal/obs":      true,
	modulePrefix + "/internal/clusterd": true,
	modulePrefix + "/internal/wire":     true,
}

func runCtxLeak(pass *Pass) error {
	if !ctxLeakPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goStmtCancellable(pass.Info, n) {
					pass.Reportf(n.Pos(), "goroutine has no cancellation path (no context, channel, or WaitGroup): it outlives Close/Shutdown and leaks across runs")
				}
			case *ast.ForStmt:
				reportSleepLoop(pass, n)
			}
			return true
		})
	}
	return nil
}

// reportSleepLoop flags direct time.Sleep calls in a for-loop that
// observes no cancellation signal in its condition or body. Sleeps in
// nested loops or function literals are attributed to their own
// innermost construct, not this one.
func reportSleepLoop(pass *Pass, loop *ast.ForStmt) {
	if loopObservesCancel(pass.Info, loop) {
		return
	}
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.CallExpr:
			if isPkgFunc(calleeFunc(pass.Info, n), "time", "Sleep") {
				pass.Reportf(n.Pos(), "time.Sleep in a retry/poll loop with no cancellation path: a draining daemon cannot interrupt it; select on a stop channel or use core.Sleep(ctx, d)")
			}
		}
		return true
	})
}

// loopObservesCancel reports whether the loop's condition or body can
// notice a stop signal: a select, any channel operation, or a value of
// type context.Context or channel. A WaitGroup deliberately does not
// count here — it signals completion outward, it cannot interrupt the
// loop's own sleeps.
func loopObservesCancel(info *types.Info, loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && cancelSignalType(obj.Type()) {
				found = true
			}
		}
		return !found
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	ast.Inspect(loop.Body, check)
	return found
}

// cancelSignalType reports whether t can deliver an interrupt to a
// polling loop: a context.Context or any channel.
func cancelSignalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if typeIs(t, "context", "Context") {
		return true
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	_, isChan := u.(*types.Chan)
	return isChan
}

// goStmtCancellable reports whether the spawned goroutine has any
// cancellation signal in reach.
func goStmtCancellable(info *types.Info, gs *ast.GoStmt) bool {
	// Arguments evaluated at spawn: a context, channel, or WaitGroup
	// handed to the goroutine counts, whatever the callee does with it.
	for _, arg := range gs.Call.Args {
		if tv, ok := info.Types[arg]; ok && cancellationType(tv.Type) {
			return true
		}
	}
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		return bodyCancellable(info, fun.Body)
	default:
		// Named function or method value: cancellable if its signature
		// accepts a cancellation carrier, or if it's a method on a type
		// that plausibly owns one (bound methods like wg.Wait).
		if fn := calleeFunc(info, gs.Call); fn != nil {
			if sig, ok := fn.Type().(*types.Signature); ok {
				params := sig.Params()
				for i := 0; i < params.Len(); i++ {
					if cancellationType(params.At(i).Type()) {
						return true
					}
				}
				if recv := sig.Recv(); recv != nil && cancellationType(recv.Type()) {
					return true
				}
			}
		}
		return false
	}
}

// bodyCancellable reports whether the function body contains any
// cancellation mechanism: channel operations, select, context values, or
// WaitGroup participation. Nested function literals count — the body can
// reach them.
func bodyCancellable(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && cancellationType(obj.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if recv := recvType(fn); recv != nil && typeIs(recv, "sync", "WaitGroup") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// cancellationType reports whether t can carry a stop signal: a
// context.Context, any channel, or a sync.WaitGroup.
func cancellationType(t types.Type) bool {
	if t == nil {
		return false
	}
	if typeIs(t, "context", "Context") || typeIs(t, "sync", "WaitGroup") {
		return true
	}
	u := t.Underlying()
	if p, ok := u.(*types.Pointer); ok {
		u = p.Elem().Underlying()
	}
	_, isChan := u.(*types.Chan)
	return isChan
}
