package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockHoldPkgs are the packages whose mutex discipline is checked: the
// serving-path state machines where a blocking call under a lock stalls
// every stream sharing the structure.
var lockHoldPkgs = []string{"media", "sched"}

// LockHold flags blocking operations inside lexical critical sections:
// sends/receives on provably unbuffered channels, WaitGroup/Cond Wait,
// and time.Sleep (conn I/O cannot happen there at all: connio confines
// it to package wire). It also checks nested mutex acquisitions against
// the documented lock order: the source's //nslint:lock-order
// directives, read as lockorder reads them. Methods named *Locked are
// analyzed as if their receiver's mu is held.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "forbid blocking calls (unbuffered channel ops, Wait, Sleep) " +
		"while holding a mutex, and enforce the documented lock order",
	Run: runLockHold,
}

func runLockHold(pass *Pass) {
	if !pass.inPackages(lockHoldPkgs...) {
		return
	}
	unbuffered := unbufferedChans(pass)
	documented := documentedLockOrder(pass.Prog)
	pass.eachFunc(func(fd *ast.FuncDecl) {
		var held []string
		// The *Locked suffix is the repo's convention for "caller holds the
		// receiver's mu"; analyze the body under that assumption.
		if strings.HasSuffix(fd.Name.Name, "Locked") {
			if r := pass.recvTypeName(fd); r != "" {
				held = append(held, r+".mu")
			}
		}
		walkLockStmts(pass, fd.Body.List, held, unbuffered, documented)
	})
}

// walkLockStmts interprets a statement list tracking the lexically held
// mutexes. Lock pushes, Unlock pops; `defer mu.Unlock()` leaves the
// mutex held to the end of the enclosing list, which is exactly the
// lexical region the convention protects.
func walkLockStmts(pass *Pass, stmts []ast.Stmt, held []string, unbuffered map[types.Object]bool, documented map[string]bool) {
	held = append([]string(nil), held...)
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if key, op := lockOp(pass, s.X); op != "" {
				switch op {
				case "Lock", "RLock":
					reportLockEdge(pass, s.Pos(), held, key, documented)
					held = append(held, key)
				case "Unlock", "RUnlock":
					held = removeLast(held, key)
				}
				continue
			}
			if len(held) > 0 {
				checkBlockingExpr(pass, s.X, held, unbuffered)
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the region open; any other defer is
			// not executed here.
			continue
		case *ast.AssignStmt:
			if len(held) > 0 {
				for _, r := range s.Rhs {
					checkBlockingExpr(pass, r, held, unbuffered)
				}
			}
		case *ast.SendStmt:
			if len(held) > 0 {
				checkChanOp(pass, s.Chan, s.Pos(), held, unbuffered, "send on")
			}
		case *ast.BlockStmt:
			walkLockStmts(pass, s.List, held, unbuffered, documented)
		case *ast.IfStmt:
			walkLockStmts(pass, s.Body.List, held, unbuffered, documented)
			if s.Else != nil {
				walkLockStmts(pass, []ast.Stmt{s.Else}, held, unbuffered, documented)
			}
		case *ast.ForStmt:
			walkLockStmts(pass, s.Body.List, held, unbuffered, documented)
		case *ast.RangeStmt:
			walkLockStmts(pass, s.Body.List, held, unbuffered, documented)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockStmts(pass, cc.Body, held, unbuffered, documented)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockStmts(pass, cc.Body, held, unbuffered, documented)
				}
			}
		case *ast.SelectStmt:
			// A select with branches never blocks indefinitely on one
			// channel when a default exists; without one it can, but the
			// repo's selects under locks pair with timers. Descend into the
			// bodies only.
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLockStmts(pass, cc.Body, held, unbuffered, documented)
				}
			}
		case *ast.GoStmt:
			// The spawned goroutine does not inherit the lock.
			continue
		case *ast.ReturnStmt:
			if len(held) > 0 {
				for _, r := range s.Results {
					checkBlockingExpr(pass, r, held, unbuffered)
				}
			}
		}
	}
}

// checkBlockingExpr reports blocking operations in an expression
// evaluated while holding held. Function literals are skipped: they run
// later, typically without the lock.
func checkBlockingExpr(pass *Pass, e ast.Expr, held []string, unbuffered map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				checkChanOp(pass, n.X, n.Pos(), held, unbuffered, "receive from")
			}
		case *ast.CallExpr:
			checkBlockingCall(pass, n, held, unbuffered)
		}
		return true
	})
}

func checkBlockingCall(pass *Pass, call *ast.CallExpr, held []string, unbuffered map[types.Object]bool) {
	fn := pass.calleeFunc(call)
	if fn == nil {
		return
	}
	if fn.Name() == "Wait" {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if n := namedOf(pass.exprType(sel.X)); n != nil && n.Obj().Pkg() != nil &&
				n.Obj().Pkg().Path() == "sync" {
				pass.Reportf(call.Pos(), "sync.%s.Wait while holding %s blocks every other holder", n.Obj().Name(), held[len(held)-1])
			}
		}
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		pass.Reportf(call.Pos(), "time.Sleep while holding %s stalls all contenders for the full duration", held[len(held)-1])
	}
}

// checkChanOp flags a send/receive while locked, but only when the
// channel is provably unbuffered: buffered channels usually absorb the
// op, and guessing would drown real findings in noise.
func checkChanOp(pass *Pass, ch ast.Expr, pos token.Pos, held []string, unbuffered map[types.Object]bool, verb string) {
	obj := chanObj(pass, ch)
	if obj == nil || !unbuffered[obj] {
		return
	}
	pass.Reportf(pos, "%s unbuffered channel %q while holding %s: blocks until a peer is ready, with the lock pinned", verb, exprText(ast.Unparen(ch)), held[len(held)-1])
}

// chanObj resolves a channel expression to its declaring object.
func chanObj(pass *Pass, ch ast.Expr) types.Object {
	switch e := ast.Unparen(ch).(type) {
	case *ast.Ident:
		if o := pass.Pkg.Info.Uses[e]; o != nil {
			return o
		}
		return pass.Pkg.Info.Defs[e]
	case *ast.SelectorExpr:
		return pass.Pkg.Info.Uses[e.Sel]
	}
	return nil
}

// unbufferedChans scans the package for `make(chan ...)` sites and
// returns the channel objects whose every make has no capacity argument.
// A channel with any buffered make, or none visible, is not reported.
func unbufferedChans(pass *Pass) map[types.Object]bool {
	madeUnbuffered := make(map[types.Object]bool)
	madeBuffered := make(map[types.Object]bool)
	record := func(target ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "make" {
			return
		}
		if _, ok := pass.exprType(call).Underlying().(*types.Chan); !ok {
			return
		}
		obj := chanObj(pass, target)
		if obj == nil {
			return
		}
		if len(call.Args) >= 2 {
			madeBuffered[obj] = true
		} else {
			madeUnbuffered[obj] = true
		}
	}
	pass.eachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) {
						record(lhs, n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						record(name, n.Values[i])
					}
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						record(kv.Key, kv.Value)
					}
				}
			}
			return true
		})
	})
	out := make(map[types.Object]bool, len(madeUnbuffered))
	for o := range madeUnbuffered {
		if !madeBuffered[o] {
			out[o] = true
		}
	}
	return out
}

// lockOp matches `<mutex>.Lock/RLock/Unlock/RUnlock()` and returns the
// mutex key plus the operation name.
func lockOp(pass *Pass, e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	k, ok := pass.mutexKey(sel.X)
	if !ok {
		return "", ""
	}
	return k, sel.Sel.Name
}

// reportLockEdge checks a nested acquisition against the documented order.
// Only edges between named Owner.field mutexes are judged; bare local
// mutexes carry no documented order.
func reportLockEdge(pass *Pass, pos token.Pos, held []string, acquiring string, documented map[string]bool) {
	if strings.HasPrefix(acquiring, ".") {
		return
	}
	for _, h := range held {
		if h == acquiring || strings.HasPrefix(h, ".") {
			continue
		}
		if !documented[h+"->"+acquiring] {
			pass.Reportf(pos, "acquiring %s while holding %s is outside the documented lock order (see DESIGN.md Invariants); fix the nesting or document the edge", acquiring, h)
		}
	}
}

func removeLast(held []string, key string) []string {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == key {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}
