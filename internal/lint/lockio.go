package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockIO flags Transport/Store/network/file I/O performed while a
// sync.Mutex or RWMutex acquired in the same function is still held —
// the NameNode/DataNode/client deadlock-and-latency class: an RPC issued
// under a namespace lock turns one slow peer into a cluster-wide stall,
// and two components doing it to each other deadlocks the pair. The
// repo's convention (plan under the lock, do I/O outside, commit back
// under the lock) is what this analyzer mechanizes.
//
// The analysis is intra-procedural and flow-approximate: it tracks
// Lock/Unlock pairs linearly through each function body, treats `defer
// mu.Unlock()` as holding the lock for the remainder of the function,
// and assumes branches that fall through execute. Helpers that *require*
// the caller to hold a lock (the *Locked suffix convention) are not
// charged — they acquire nothing themselves.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc:  "no Transport/Store/net/file I/O while holding a mutex acquired in the same function",
	Run:  runLockIO,
}

// ioMethodTypes are the named types whose method calls count as I/O.
// Interface types match calls through the interface; concrete types
// match direct calls.
var ioMethodTypes = []struct{ path, name string }{
	{modulePrefix + "/internal/dfs", "Transport"},
	{modulePrefix + "/internal/dfs", "NameNodeAPI"},
	{modulePrefix + "/internal/dfs", "DataNodeAPI"},
	{modulePrefix + "/internal/storage", "Store"},
	{"net", "Conn"},
	{"net", "TCPConn"},
	{"net", "Listener"},
	{"os", "File"},
}

// ioPkgFuncs are package-level functions that perform I/O.
var ioPkgFuncs = map[string]map[string]bool{
	"net": {"Dial": true, "DialTimeout": true, "Listen": true, "DialTCP": true},
	"os": {"Open": true, "Create": true, "OpenFile": true, "ReadFile": true,
		"WriteFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
		"Mkdir": true, "MkdirAll": true},
}

func runLockIO(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walkLockFlow(pass, n.Body.List, make(map[string]token.Pos))
				}
			case *ast.FuncLit:
				// Each function literal is its own execution context:
				// locks held at its creation site are not (in general)
				// held when it runs.
				walkLockFlow(pass, n.Body.List, make(map[string]token.Pos))
			}
			return true
		})
	}
	return nil
}

// walkLockFlow interprets stmts linearly, tracking which mutexes are
// held, reporting I/O under a held lock. It returns the held set at fall
// through and whether the block always leaves the enclosing flow
// (return/branch/panic).
func walkLockFlow(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) (map[string]token.Pos, bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			scanCalls(pass, s, held)
			return held, true
		case *ast.BranchStmt:
			return held, true
		case *ast.ExprStmt:
			if isPanicCall(s.X) {
				return held, true
			}
			scanCalls(pass, s, held)
		case *ast.DeferStmt:
			// A deferred unlock keeps the lock held for the remainder of
			// the function; any other deferred call runs at return, where
			// the lock picture is uncertain — skip it.
			if key, kind := lockOp(pass.Info, s.Call); kind == opUnlock {
				// Pin: drop the key from future explicit-unlock removal by
				// re-adding it under a marker the unlock handler skips.
				if pos, ok := held[key]; ok {
					held["defer "+key] = pos
				}
			}
		case *ast.BlockStmt:
			var term bool
			held, term = walkLockFlow(pass, s.List, held)
			if term {
				return held, true
			}
		case *ast.LabeledStmt:
			var term bool
			held, term = walkLockFlow(pass, []ast.Stmt{s.Stmt}, held)
			if term {
				return held, true
			}
		case *ast.IfStmt:
			if s.Init != nil {
				scanCalls(pass, s.Init, held)
			}
			scanCalls(pass, s.Cond, held)
			bodyOut, bodyTerm := walkLockFlow(pass, s.Body.List, copyHeld(held))
			var elseOut map[string]token.Pos
			elseTerm := false
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				elseOut, elseTerm = walkLockFlow(pass, e.List, copyHeld(held))
			case *ast.IfStmt:
				elseOut, elseTerm = walkLockFlow(pass, []ast.Stmt{e}, copyHeld(held))
			}
			switch {
			case s.Else == nil:
				if !bodyTerm {
					held = bodyOut
				}
			case bodyTerm && elseTerm:
				return held, true
			case bodyTerm:
				held = elseOut
			case elseTerm:
				held = bodyOut
			default:
				held = unionHeld(bodyOut, elseOut)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				scanCalls(pass, s.Init, held)
			}
			if s.Cond != nil {
				scanCalls(pass, s.Cond, held)
			}
			bodyOut, _ := walkLockFlow(pass, s.Body.List, copyHeld(held))
			held = unionHeld(held, bodyOut)
		case *ast.RangeStmt:
			scanCalls(pass, s.X, held)
			bodyOut, _ := walkLockFlow(pass, s.Body.List, copyHeld(held))
			held = unionHeld(held, bodyOut)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var body *ast.BlockStmt
			switch s := s.(type) {
			case *ast.SwitchStmt:
				if s.Init != nil {
					scanCalls(pass, s.Init, held)
				}
				if s.Tag != nil {
					scanCalls(pass, s.Tag, held)
				}
				body = s.Body
			case *ast.TypeSwitchStmt:
				body = s.Body
			case *ast.SelectStmt:
				body = s.Body
			}
			outs := []map[string]token.Pos{held}
			for _, clause := range body.List {
				var list []ast.Stmt
				switch c := clause.(type) {
				case *ast.CaseClause:
					for _, e := range c.List {
						scanCalls(pass, e, held)
					}
					list = c.Body
				case *ast.CommClause:
					list = c.Body
				}
				out, term := walkLockFlow(pass, list, copyHeld(held))
				if !term {
					outs = append(outs, out)
				}
			}
			merged := outs[0]
			for _, o := range outs[1:] {
				merged = unionHeld(merged, o)
			}
			held = merged
		case *ast.GoStmt:
			// The goroutine body runs concurrently under its own flow
			// (covered by the FuncLit walk); argument evaluation is
			// synchronous but never a lock op in practice.
		default:
			scanCalls(pass, stmt, held)
		}
	}
	return held, false
}

// scanCalls finds every call under n (not descending into function
// literals), applying lock/unlock transitions and reporting I/O calls
// made while a lock is held.
func scanCalls(pass *Pass, n ast.Node, held map[string]token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, kind := lockOp(pass.Info, call); kind != opNone {
			if kind == opLock {
				held[key] = call.Pos()
			} else {
				delete(held, key)
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		if desc := ioCallDesc(pass.Info, call); desc != "" {
			// Deferred unlocks pin their lock under a "defer " marker;
			// any surviving key means the lock is held here.
			var lockKey string
			for k := range held {
				lockKey = k
				break
			}
			if len(held) > 1 {
				lockKey = "a mutex"
			}
			pass.Reportf(call.Pos(), "%s called while %s is held: do Transport/Store/network I/O outside the lock (plan under the lock, act outside, commit back)", desc, trimDeferMarker(lockKey))
		}
		return true
	})
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies call as a Lock/RLock or Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, returning a stable key for the lock
// expression ("n.mu").
func lockOp(info *types.Info, call *ast.CallExpr) (string, lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", opNone
	}
	recv := recvType(fn)
	if recv == nil || !(typeIs(recv, "sync", "Mutex") || typeIs(recv, "sync", "RWMutex")) {
		return "", opNone
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, opLock
	case "Unlock", "RUnlock":
		return key, opUnlock
	}
	return "", opNone
}

// ioCallDesc returns a human-readable description of call when it is an
// I/O operation, or "".
func ioCallDesc(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if recv := recvType(fn); recv != nil {
		for _, t := range ioMethodTypes {
			if typeIs(recv, t.path, t.name) {
				n := namedOf(recv)
				return n.Obj().Name() + "." + fn.Name()
			}
		}
		return ""
	}
	if names, ok := ioPkgFuncs[fn.Pkg().Path()]; ok && names[fn.Name()] {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return ""
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func unionHeld(a, b map[string]token.Pos) map[string]token.Pos {
	out := copyHeld(a)
	for k, v := range b {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func trimDeferMarker(key string) string {
	if len(key) > 6 && key[:6] == "defer " {
		return key[6:]
	}
	return key
}
