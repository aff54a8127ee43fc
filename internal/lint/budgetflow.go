package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// budgetflowPkgs are the serving-path packages where every deadline must
// trace back to a budget and every wait must honor one.
var budgetflowPkgs = []string{"media", "edge", "wire", "flight"}

// BudgetFlow is the source-sink taint check over deadline values: connio
// demands that conn I/O *has* a deadline; budgetflow demands it is the
// *right* deadline — derived from a wire budget (a Budget/Deadline field
// on a frame), a chunk budget, or a config backstop (a *Timeout/*Budget
// duration field or Default* constant), never a bare literal.
//
// Two sinks are checked:
//
//   - every SetDeadline/SetReadDeadline/SetWriteDeadline argument on a
//     conn must be tainted (zero-time clears are exempt);
//   - inside any function carrying a time.Time/time.Duration parameter
//     (a budget carrier on the serving path), a bare channel receive or
//     a select with neither default nor a budget-derived timer case can
//     outwait the budget it was handed, and is flagged.
//
// Taint propagates through locals (assignment fixpoint per function),
// through any call that mentions a tainted argument (time.Now().Add(b),
// time.Until(d), normalization helpers), and interprocedurally into
// time-typed parameters when every in-load caller passes a tainted
// argument — exported functions' parameters are tainted by fiat, since
// their callers live outside the load and own the derivation.
var BudgetFlow = &Analyzer{
	Name: "budgetflow",
	Doc: "require conn deadlines derived from wire budgets or config backstops, " +
		"and budget-bounded waits in functions that carry a deadline",
	Run: runBudgetFlow,
}

func runBudgetFlow(pass *Pass) {
	if !pass.inPackages(budgetflowPkgs...) || pass.Prog == nil {
		return
	}
	bf := &budgetFlow{
		pass:       pass,
		prog:       pass.Prog,
		callers:    map[string][]bfCaller{},
		locals:     map[*FuncNode]map[types.Object]bool{},
		paramState: map[string]int{},
	}
	for _, n := range bf.prog.Nodes {
		for _, site := range n.Calls {
			for _, callee := range site.Callees {
				bf.callers[callee.Key] = append(bf.callers[callee.Key], bfCaller{node: n, call: site.Call})
			}
		}
	}
	for _, n := range bf.prog.Nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		bf.checkDeadlineArgs(n)
		if n.Decl != nil && bf.hasTimeParam(n) {
			bf.checkWaits(n)
		}
	}
}

type bfCaller struct {
	node *FuncNode
	call *ast.CallExpr
}

type budgetFlow struct {
	pass    *Pass
	prog    *Program
	callers map[string][]bfCaller
	locals  map[*FuncNode]map[types.Object]bool
	// paramState memoizes parameter taint: 1 in-progress (cycle: treat
	// as untainted, the least fixpoint), 2 tainted, 3 untainted.
	paramState map[string]int
}

// isTimeType matches time.Time and time.Duration.
func isTimeType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "time" {
		return false
	}
	return n.Obj().Name() == "Time" || n.Obj().Name() == "Duration"
}

// budgetName matches the naming convention budgets travel under.
func budgetName(name string) bool {
	l := strings.ToLower(name)
	return strings.HasSuffix(l, "budget") || strings.HasSuffix(l, "deadline") || strings.HasSuffix(l, "timeout")
}

func (bf *budgetFlow) hasTimeParam(n *FuncNode) bool {
	if n.Fn == nil {
		return false
	}
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isTimeType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// localTaint computes (and memoizes) the node's tainted locals by
// iterating assignments to a fixpoint.
func (bf *budgetFlow) localTaint(n *FuncNode) map[types.Object]bool {
	if m, ok := bf.locals[n]; ok {
		return m
	}
	m := map[types.Object]bool{}
	bf.locals[n] = m // set before iterating so cycles terminate
	pass := n.pass(bf.prog)
	for changed := true; changed; {
		changed = false
		shallowInspect(n.Body, func(nd ast.Node) bool {
			as, ok := nd.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				var rhs ast.Expr
				if i < len(as.Rhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Pkg.Info.Defs[id]
				if obj == nil {
					obj = pass.Pkg.Info.Uses[id]
				}
				if obj == nil || m[obj] {
					continue
				}
				if bf.taintedIn(n, rhs, m) {
					m[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return m
}

// taintedIn reports whether e mentions a budget source in the context
// of node n: a budget-named time-typed field or package-level value, a
// tainted local (n's or an enclosing declaration's, for literals), or a
// tainted time-typed parameter.
func (bf *budgetFlow) taintedIn(n *FuncNode, e ast.Expr, local map[types.Object]bool) bool {
	pass := n.pass(bf.prog)
	tainted := false
	ast.Inspect(e, func(m ast.Node) bool {
		if tainted {
			return false
		}
		switch m := m.(type) {
		case *ast.SelectorExpr:
			if isTimeType(pass.exprType(m)) && budgetName(m.Sel.Name) {
				tainted = true
				return false
			}
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[m]
			if obj == nil {
				obj = pass.Pkg.Info.Defs[m]
			}
			if obj == nil {
				return true
			}
			// Package-scope constants and variables match by convention.
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() &&
				isTimeType(obj.Type()) && budgetName(obj.Name()) {
				tainted = true
				return false
			}
			if local[obj] {
				tainted = true
				return false
			}
			// Walk the literal-nesting chain: an ident in a closure may be
			// the enclosing declaration's local or parameter.
			for p := n; p != nil; p = p.Parent {
				if p != n {
					if bf.localTaint(p)[obj] {
						tainted = true
						return false
					}
				}
				if i := p.paramIndexOf(p.pass(bf.prog), m); i >= 0 {
					if isTimeType(obj.Type()) && bf.paramTainted(p, i) {
						tainted = true
					}
					return !tainted
				}
			}
		}
		return true
	})
	return tainted
}

// paramTainted reports whether every in-load caller passes a tainted
// argument at index idx. Exported functions are tainted by fiat: their
// derivation obligation sits with callers outside the load.
func (bf *budgetFlow) paramTainted(n *FuncNode, idx int) bool {
	key := n.Key + "#" + itoa(idx)
	switch bf.paramState[key] {
	case 1, 3:
		return false
	case 2:
		return true
	}
	if n.Fn != nil && n.Fn.Exported() {
		bf.paramState[key] = 2
		return true
	}
	bf.paramState[key] = 1
	callers := bf.callers[n.Key]
	ok := len(callers) > 0
	for _, c := range callers {
		if idx >= len(c.call.Args) {
			ok = false
			break
		}
		if !bf.taintedIn(c.node, c.call.Args[idx], bf.localTaint(c.node)) {
			ok = false
			break
		}
	}
	if ok {
		bf.paramState[key] = 2
	} else {
		bf.paramState[key] = 3
	}
	return ok
}

// isZeroTime matches time.Time{} — clearing a deadline, not setting one.
func isZeroTime(pass *Pass, e ast.Expr) bool {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	n := namedOf(pass.exprType(cl))
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "time" && n.Obj().Name() == "Time"
}

// checkDeadlineArgs is the sink check on deadline setters.
func (bf *budgetFlow) checkDeadlineArgs(n *FuncNode) {
	pass := n.pass(bf.prog)
	local := bf.localTaint(n)
	shallowInspect(n.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isConnType(pass.exprType(sel.X)) {
			return true
		}
		switch sel.Sel.Name {
		case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
		default:
			return true
		}
		arg := call.Args[0]
		if isZeroTime(pass, arg) || bf.taintedIn(n, arg, local) {
			return true
		}
		bf.pass.Reportf(call.Pos(),
			"deadline on %q is not derived from a wire budget, chunk budget, or config backstop",
			exprText(sel.X))
		return true
	})
}

// checkWaits is the sink check on blocking waits inside budget-carrying
// functions: the budget parameter exists to bound exactly these.
func (bf *budgetFlow) checkWaits(n *FuncNode) {
	local := bf.localTaint(n)
	// Receives that appear as a select case's comm are judged with their
	// select, not as bare receives.
	inComm := map[ast.Node]bool{}
	shallowInspect(n.Body, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(x ast.Node) bool {
				if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					inComm[u] = true
				}
				return true
			})
		}
		return true
	})
	shallowInspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op != token.ARROW || inComm[m] {
				return true
			}
			// A receive from a budget-derived channel (a timer built from
			// the deadline) is itself the bound.
			if bf.taintedIn(n, m.X, local) {
				return true
			}
			bf.pass.Reportf(m.Pos(),
				"receive on %q can outwait the budget this function carries: bound it with a select on a budget-derived timer",
				exprText(m.X))
		case *ast.SelectStmt:
			bounded := false
			for _, c := range m.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil { // default case
					bounded = true
					break
				}
				ast.Inspect(cc.Comm, func(x ast.Node) bool {
					if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						if bf.taintedIn(n, u.X, local) {
							bounded = true
						}
					}
					return true
				})
				if bounded {
					break
				}
			}
			if !bounded {
				bf.pass.Reportf(m.Pos(),
					"select has neither a default nor a budget-derived timer case: it can outwait the budget this function carries")
			}
		}
		return true
	})
}
