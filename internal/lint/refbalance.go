package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RefBalance checks the shared-ownership discipline of refcounted
// handles (edge.entry and anything shaped like it: a named type with
// parameterless retain/release methods). Unlike ownership's linear
// slabs, a refcounted handle has many concurrent holders; what must
// balance is each holder's own reference:
//
//   - a reference acquired in a function — from a returnsRef callee
//     such as Cache.Get or a fetch chain ending in a constructor, or by
//     constructing the handle directly — must be released, returned,
//     stored, sent, or handed to an ownership-taking callee on every
//     path out of the function, with the error side of the acquisition
//     guard exempt (a failed acquisition yields no handle);
//   - path sensitivity matters: a callee that releases the argument
//     only on its error path (the split refRelOnErr summary fact) does
//     not discharge the success path, and the leak is reported with
//     that distinction;
//   - a release observed twice on one path is a double-release, the
//     refcount underflow that frees a slab still being written;
//   - every retain() grant must be followed by a handoff — a store,
//     send, return, or call taking the handle — because a retain whose
//     reference goes nowhere is an unreleasable leak by construction
//     (the single-flight waiter-grant shape of the edge's grant, which
//     flight.Group.Complete calls once per waiter).
var RefBalance = &Analyzer{
	Name: "refbalance",
	Doc: "balance refcounted handle acquisitions (Cache.Get, constructors, retain grants) " +
		"against releases and handoffs on every path, using the split release summaries",
	RunProgram: runRefBalance,
}

// maxRefStates bounds the per-function path enumeration; branches past
// the cap merge into the existing state set (sound for dedup'd reports,
// which is all the truncation costs us).
const maxRefStates = 64

func runRefBalance(pp *ProgramPass) {
	r := &refbalanceRun{pp: pp, prog: pp.Prog, reported: make(map[string]bool)}
	for _, n := range pp.Prog.Nodes {
		r.checkNode(n)
		r.checkRetains(n)
	}
}

type refbalanceRun struct {
	pp       *ProgramPass
	prog     *Program
	reported map[string]bool
}

func (r *refbalanceRun) report(pkg *Package, pos token.Pos, format string, args ...any) {
	key := pkg.Fset.Position(pos).String() + format
	if r.reported[key] {
		return
	}
	r.reported[key] = true
	r.pp.Reportf(pkg, pos, format, args...)
}

// refOb is one live obligation: a reference this function owns and must
// dispose of before the path ends.
type refOb struct {
	name string
	pos  token.Pos
	// guard is the err/ok object of the acquiring assignment while the
	// acquisition is unconfirmed: the error side of a branch on it
	// cancels the obligation, the success side confirms it (nil).
	guard types.Object
	// errOnly marks an obligation handed to a callee that releases it
	// only on the callee's error path; surviving to a path end with this
	// set gets the sharper message.
	errOnly bool
}

// refState is one path's tracking state.
type refState struct {
	owned    map[types.Object]*refOb
	released map[types.Object]token.Pos
}

func newRefState() *refState {
	return &refState{owned: map[types.Object]*refOb{}, released: map[types.Object]token.Pos{}}
}

func (st *refState) clone() *refState {
	c := &refState{
		owned:    make(map[types.Object]*refOb, len(st.owned)),
		released: make(map[types.Object]token.Pos, len(st.released)),
	}
	for k, v := range st.owned {
		ob := *v
		c.owned[k] = &ob
	}
	for k, v := range st.released {
		c.released[k] = v
	}
	return c
}

func cloneStates(states []*refState) []*refState {
	out := make([]*refState, len(states))
	for i, st := range states {
		out[i] = st.clone()
	}
	return out
}

func unionStates(a, b []*refState) []*refState {
	out := append(a, b...)
	if len(out) > maxRefStates {
		out = out[:maxRefStates]
	}
	return out
}

// refCtx bundles the per-function inputs of one walk.
type refCtx struct {
	node  *FuncNode
	pass  *Pass
	sites map[*ast.CallExpr]*CallSite
}

func (r *refbalanceRun) checkNode(n *FuncNode) {
	cx := &refCtx{node: n, pass: n.pass(r.prog), sites: make(map[*ast.CallExpr]*CallSite, len(n.Calls))}
	for _, c := range n.Calls {
		cx.sites[c.Call] = c
	}
	states := r.walk(cx, n.Body.List, []*refState{newRefState()})
	for _, st := range states {
		r.leakCheck(cx, st, n.Body.Rbrace)
	}
}

func (r *refbalanceRun) walk(cx *refCtx, stmts []ast.Stmt, states []*refState) []*refState {
	for _, s := range stmts {
		states = r.walkStmt(cx, s, states)
		if len(states) == 0 {
			return nil
		}
	}
	return states
}

func (r *refbalanceRun) walkStmt(cx *refCtx, s ast.Stmt, states []*refState) []*refState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return states
		}
		for _, st := range states {
			r.applyCall(cx, st, call)
		}
		return states
	case *ast.DeferStmt:
		// A deferred release discharges here: it runs on every exit of
		// the suffix this path covers, and an inline release after it is
		// the double the released map catches.
		for _, st := range states {
			r.applyCall(cx, st, s.Call)
		}
		return states
	case *ast.GoStmt:
		// Ownership moves to the spawned goroutine: shared refcounts mean
		// the handle may legitimately outlive this path.
		for _, st := range states {
			for _, arg := range s.Call.Args {
				if obj := rootObjOf(cx.pass, arg); obj != nil {
					delete(st.owned, obj)
				}
			}
		}
		return states
	case *ast.SendStmt:
		for _, st := range states {
			if obj := rootObjOf(cx.pass, s.Value); obj != nil {
				delete(st.owned, obj)
			}
		}
		return states
	case *ast.AssignStmt:
		for _, st := range states {
			r.applyAssign(cx, st, s)
		}
		return states
	case *ast.ReturnStmt:
		for _, st := range states {
			for _, res := range s.Results {
				dischargeMentions(cx, st, res)
			}
			r.leakCheck(cx, st, s.Pos())
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto leave the walked region; the target list
		// re-walks from its own state, so this path simply ends.
		return nil
	case *ast.IfStmt:
		if s.Init != nil {
			states = r.walkStmt(cx, s.Init, states)
		}
		guard, thenC, elseC := classifyCond(cx.pass, s.Cond)
		thenStates := applyGuard(cloneStates(states), guard, thenC)
		elseStates := applyGuard(states, guard, elseC)
		out := r.walk(cx, s.Body.List, thenStates)
		if s.Else != nil {
			out = unionStates(out, r.walkStmt(cx, s.Else, elseStates))
		} else {
			out = unionStates(out, elseStates)
		}
		return out
	case *ast.BlockStmt:
		return r.walk(cx, s.List, states)
	case *ast.LabeledStmt:
		return r.walkStmt(cx, s.Stmt, states)
	case *ast.ForStmt:
		// Zero-or-one iteration: releases inside the body count, paths
		// that skip the loop survive unchanged.
		return unionStates(states, r.walk(cx, s.Body.List, cloneStates(states)))
	case *ast.RangeStmt:
		return unionStates(states, r.walk(cx, s.Body.List, cloneStates(states)))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		hasDefault := false
		switch s := s.(type) {
		case *ast.SwitchStmt:
			body = s.Body
		case *ast.TypeSwitchStmt:
			body = s.Body
		case *ast.SelectStmt:
			// A select without default still takes exactly one case.
			body, hasDefault = s.Body, true
		}
		var out []*refState
		for _, c := range body.List {
			var list []ast.Stmt
			switch c := c.(type) {
			case *ast.CaseClause:
				list = c.Body
				if c.List == nil {
					hasDefault = true
				}
			case *ast.CommClause:
				list = c.Body
			}
			out = unionStates(out, r.walk(cx, list, cloneStates(states)))
		}
		if !hasDefault {
			out = unionStates(out, states)
		}
		return out
	default:
		return states
	}
}

// applyGuard resolves an acquisition guard at a branch: the error side
// cancels the obligation (the acquisition failed, there is no handle),
// the success side confirms it.
func applyGuard(states []*refState, guard types.Object, c pathCond) []*refState {
	if guard == nil || c == condBoth {
		return states
	}
	for _, st := range states {
		for obj, ob := range st.owned {
			if ob.guard != guard {
				continue
			}
			if c == condErr {
				delete(st.owned, obj)
			} else {
				ob.guard = nil
			}
		}
	}
	return states
}

// applyCall interprets one call on one path: a release of a tracked
// handle, or argument handoffs judged by the callees' summaries.
func (r *refbalanceRun) applyCall(cx *refCtx, st *refState, call *ast.CallExpr) {
	if recv, name, ok := refMethodCall(cx.pass, call); ok {
		obj := rootObjOf(cx.pass, recv)
		if obj == nil || name == "retain" {
			return
		}
		if prev, ok := st.released[obj]; ok {
			r.report(cx.node.Pkg, call.Pos(),
				"refcounted handle %q is released more than once on this path (previous release at %s)",
				objName(obj), posStr(cx.node.Pkg, prev))
			return
		}
		delete(st.owned, obj)
		st.released[obj] = call.Pos()
		return
	}
	site := cx.sites[call]
	for j, arg := range call.Args {
		obj := rootObjOf(cx.pass, arg)
		if obj == nil {
			continue
		}
		ob, owned := st.owned[obj]
		if !owned {
			continue
		}
		if site == nil || len(site.Callees) == 0 {
			// Unresolved callee (stdlib, export-only dep): assume it may
			// take ownership rather than invent a leak.
			delete(st.owned, obj)
			continue
		}
		for _, callee := range site.Callees {
			cs := r.prog.summary(callee)
			relErr, relOk := cs.refRelOnErr[j], cs.refRelOnOk[j]
			switch {
			case cs.transfersParam[j] || relOk || (cs.refReleasesParam[j] && !relErr):
				delete(st.owned, obj)
			case relErr:
				ob.errOnly = true
			}
			if _, still := st.owned[obj]; !still {
				break
			}
		}
	}
}

// applyAssign handles stores (discharges) and acquisitions.
func (r *refbalanceRun) applyAssign(cx *refCtx, st *refState, s *ast.AssignStmt) {
	pairRhs := func(i int) ast.Expr {
		if i < len(s.Rhs) {
			return s.Rhs[i]
		}
		if len(s.Rhs) == 1 {
			return s.Rhs[0]
		}
		return nil
	}
	// Stores into fields, elements, or dereferences discharge: the
	// reference now lives in longer-lived state.
	for i, lhs := range s.Lhs {
		rhs := pairRhs(i)
		if rhs == nil {
			continue
		}
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if obj := rootObjOf(cx.pass, rhs); obj != nil {
				delete(st.owned, obj)
			}
		}
	}
	// Rebinding a tracked ident forgets its history (the old handle is
	// gone; inventing a leak report for it would be guesswork).
	for _, lhs := range s.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := rootObjOf(cx.pass, id); obj != nil {
				delete(st.owned, obj)
				delete(st.released, obj)
			}
		}
	}
	// Acquisition from a returnsRef callee: bind the ref-typed result,
	// guarded by the err/ok result when the call has one.
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			if site := cx.sites[call]; site != nil && anyReturnsRef(r.prog, site) {
				// The error result outranks a bool as the acquisition
				// guard: in (ent, hit bool, err error), success hinges on
				// err — hit distinguishes cache tiers, not failure.
				var refObj, errGuard, boolGuard types.Object
				for _, lhs := range s.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := rootObjOf(cx.pass, id)
					if obj == nil {
						continue
					}
					switch {
					case isRefCountedType(obj.Type()):
						refObj = obj
					case isErrorType(obj.Type()):
						if errGuard == nil {
							errGuard = obj
						}
					case isBoolType(obj.Type()):
						if boolGuard == nil {
							boolGuard = obj
						}
					}
				}
				if refObj != nil {
					guard := errGuard
					if guard == nil {
						guard = boolGuard
					}
					st.owned[refObj] = &refOb{name: objName(refObj), pos: call.Pos(), guard: guard}
					delete(st.released, refObj)
				}
			}
		}
	}
	// Direct construction binds unconditionally.
	for i, lhs := range s.Lhs {
		rhs := pairRhs(i)
		if rhs == nil || !isRefCompositeExpr(cx.pass, rhs) {
			continue
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := rootObjOf(cx.pass, id); obj != nil {
			st.owned[obj] = &refOb{name: objName(obj), pos: rhs.Pos()}
			delete(st.released, obj)
		}
	}
}

func anyReturnsRef(prog *Program, site *CallSite) bool {
	for _, callee := range site.Callees {
		if prog.summary(callee).returnsRef {
			return true
		}
	}
	return false
}

func isBoolType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Bool || b.Kind() == types.UntypedBool)
}

func isRefCompositeExpr(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	cl, ok := e.(*ast.CompositeLit)
	return ok && isRefCountedType(pass.exprType(cl))
}

// dischargeMentions releases every tracked root mentioned anywhere in a
// return result: returning the handle (or anything derived from it)
// hands the reference to the caller.
func dischargeMentions(cx *refCtx, st *refState, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := cx.pass.Pkg.Info.Uses[id]
			if obj != nil {
				delete(st.owned, obj)
			}
		}
		return true
	})
}

func (r *refbalanceRun) leakCheck(cx *refCtx, st *refState, pos token.Pos) {
	for _, ob := range st.owned {
		if ob.errOnly {
			r.report(cx.node.Pkg, pos,
				"refcounted handle %q (acquired at %s) was handed to a callee that releases it only on the error path; this exit leaks the success-path reference",
				ob.name, posStr(cx.node.Pkg, ob.pos))
			continue
		}
		r.report(cx.node.Pkg, pos,
			"refcounted handle %q (acquired at %s) is not released, returned, stored, or handed off before this exit",
			ob.name, posStr(cx.node.Pkg, ob.pos))
	}
}

// checkRetains enforces the grant shape: every retain() must be
// followed by a handoff of the retained handle — a store, send, return,
// composite-literal capture, or a call taking it as an argument. A
// retain whose reference goes nowhere can never be released.
func (r *refbalanceRun) checkRetains(n *FuncNode) {
	pass := n.pass(r.prog)
	shallowInspect(n.Body, func(m ast.Node) bool {
		stmt, ok := m.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := refMethodCall(pass, call)
		if !ok || name != "retain" {
			return true
		}
		obj := rootObjOf(pass, recv)
		if obj == nil {
			return true
		}
		if !handoffAfter(pass, n, obj, call.End()) {
			r.report(n.Pkg, call.Pos(),
				"retained reference %q is never handed off: follow retain() with a store, send, return, or ownership-taking call",
				objName(obj))
		}
		return true
	})
}

// handoffAfter reports whether obj is handed off somewhere after pos in
// the node's body.
func handoffAfter(pass *Pass, n *FuncNode, obj types.Object, after token.Pos) bool {
	rootIs := func(e ast.Expr) bool {
		return rootObjOf(pass, e) == obj
	}
	found := false
	shallowInspect(n.Body, func(m ast.Node) bool {
		if found {
			return false
		}
		if m == nil || m.Pos() < after {
			return true
		}
		switch m := m.(type) {
		case *ast.AssignStmt:
			for _, rhs := range m.Rhs {
				if rootIs(rhs) {
					found = true
				}
			}
		case *ast.CallExpr:
			for _, a := range m.Args {
				if rootIs(a) {
					found = true
				}
			}
		case *ast.SendStmt:
			if rootIs(m.Value) {
				found = true
			}
		case *ast.ReturnStmt:
			for _, res := range m.Results {
				if rootIs(res) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range m.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if rootIs(e) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
