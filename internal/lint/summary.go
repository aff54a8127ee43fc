package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// funcSummary holds the per-function facts the interprocedural
// analyzers consume. Base facts come from one shallow walk per node;
// the transitive fields are closed over the call graph to a fixpoint.
type funcSummary struct {
	// releasesSome marks parameter indexes whose buffer the function
	// returns to a SlabPool on at least one path — directly via Put, or
	// transitively by forwarding the parameter to a releasing callee.
	releasesSome map[int]bool
	// releasesAll marks parameter indexes released unconditionally: by a
	// defer or by a top-level statement of the body. Used where a false
	// positive would be worse than a miss (double-release reports).
	releasesAll map[int]bool
	// transfersParam marks parameter indexes the function retains or
	// hands off: stored into a field, global, map or slice element,
	// appended, sent on a channel, or returned. Ownership moves into
	// longer-lived state, ending the caller's obligation.
	transfersParam map[int]bool
	// borrowsPool is the index of a par.SlabPool parameter whose Get
	// result the function hands back through its return values, -1 when
	// none: callers of such a function own a pooled buffer.
	borrowsPool int
	// releasesOnErr / releasesOnOk split releasesSome by the outcome
	// class of the releasing path (the err != nil side vs. the nil side;
	// see pathsens.go). A parameter marked in both maps is released on
	// every outcome class, which ownership treats as a definite release
	// even when no single Put dominates all paths. Releases with no
	// classifiable guard or return appear in neither map.
	releasesOnErr map[int]bool
	releasesOnOk  map[int]bool
	// relEdges are calls forwarding one of this function's parameters to
	// a callee; the release fixpoint closes releasesSome over them.
	relEdges []relEdge

	// Refcount facts (consumed by refbalance; see pathsens.go):
	// refReleasesParam marks parameter indexes whose refcounted handle
	// the function release()s on some path, refRelOnErr/refRelOnOk split
	// that by outcome class, and refRetainsParam marks retained ones.
	refReleasesParam map[int]bool
	refRelOnErr      map[int]bool
	refRelOnOk       map[int]bool
	refRetainsParam  map[int]bool
	// returnsRef marks functions whose return value carries a refcounted
	// handle the caller owes a release for: constructed, retained, or
	// forwarded from a returnsRef callee (via refRetCalls).
	returnsRef  bool
	refRetCalls []*CallSite

	// donesOn keys the WaitGroups this function calls Done on.
	// "Type.field" keys propagate transitively through calls; local
	// "@file:line" keys stay put (a callee cannot Done a caller's local
	// unless handed a pointer, which wgDoneParams covers).
	donesOn map[string]bool
	// addsOn keys the WaitGroups this function calls Add on.
	addsOn map[string]bool
	// wgDoneParams marks *sync.WaitGroup parameter indexes Done'd.
	wgDoneParams map[int]bool
	// waitsOnChans keys the channels this function receives from or
	// ranges over, transitively through calls with argument mapping.
	waitsOnChans map[string]bool
	// waitsOnParams marks channel-typed parameter indexes received from
	// or ranged over.
	waitsOnParams map[int]bool

	// acquires and lockCalls are the lock base facts: every direct mutex
	// acquisition and every resolved call, each with the lexically held
	// set at that point. Spawned goroutines and deferred calls are
	// excluded: lock-order deadlocks need same-goroutine nesting.
	acquires  []lockAcq
	lockCalls []lockCall
	// mayAcquire closes acquires over lockCalls: every "Type.field"
	// mutex this function can take while running synchronously, with a
	// witness for diagnostics.
	mayAcquire map[string]*lockVia
}

type relEdge struct {
	site     *CallSite
	argIdx   int
	paramIdx int
}

type lockAcq struct {
	held []string
	key  string
	pos  token.Pos
}

type lockCall struct {
	held []string
	site *CallSite
}

// lockVia explains how a function reaches a mutex: directly at pos, or
// through the call at pos into callee (follow the callee's witness for
// the same key to print the full chain).
type lockVia struct {
	pos    token.Pos
	pkg    *Package
	callee *FuncNode
}

// summary returns n's fixpoint summary, computing all of them on first
// use.
func (prog *Program) summary(n *FuncNode) *funcSummary {
	prog.ensureSummaries()
	return prog.summaries[n]
}

func (prog *Program) ensureSummaries() {
	if prog.summaries != nil {
		return
	}
	prog.summaries = make(map[*FuncNode]*funcSummary, len(prog.Nodes))
	for _, n := range prog.Nodes {
		s := &funcSummary{
			releasesSome:     map[int]bool{},
			releasesAll:      map[int]bool{},
			transfersParam:   map[int]bool{},
			borrowsPool:      -1,
			releasesOnErr:    map[int]bool{},
			releasesOnOk:     map[int]bool{},
			refReleasesParam: map[int]bool{},
			refRelOnErr:      map[int]bool{},
			refRelOnOk:       map[int]bool{},
			refRetainsParam:  map[int]bool{},
			donesOn:          map[string]bool{},
			addsOn:           map[string]bool{},
			wgDoneParams:     map[int]bool{},
			waitsOnChans:     map[string]bool{},
			waitsOnParams:    map[int]bool{},
			mayAcquire:       map[string]*lockVia{},
		}
		prog.summaries[n] = s
		prog.ownershipFacts(n, s)
		prog.pathSplitFacts(n, s)
		prog.refFacts(n, s)
		prog.joinFacts(n, s)
		prog.lockFacts(n, s)
	}
	prog.closeReleases()
	prog.closeRefs()
	prog.closeJoins()
	prog.closeLocks()
}

// rootParamIndex resolves an expression's root identifier to one of the
// node's parameter indexes, -1 otherwise.
func (prog *Program) rootParamIndex(n *FuncNode, e ast.Expr) int {
	id := rootIdent(e)
	if id == nil {
		return -1
	}
	return n.paramIndexOf(n.pass(prog), id)
}

// ownershipFacts derives the buffer-ownership base facts.
func (prog *Program) ownershipFacts(n *FuncNode, s *funcSummary) {
	pass := n.pass(prog)
	params := n.params()

	poolParams := map[int]bool{}
	for i, p := range params {
		if p == nil {
			continue
		}
		if obj := pass.Pkg.Info.Defs[p]; obj != nil && isSlabPoolType(obj.Type()) {
			poolParams[i] = true
		}
	}

	// poolGetOn matches <expr>.Get(...) where the receiver is rooted at
	// a pool parameter, returning that parameter's index.
	poolGetOn := func(call *ast.CallExpr) int {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Get" || !isSlabPoolType(pass.exprType(sel.X)) {
			return -1
		}
		if i := prog.rootParamIndex(n, sel.X); i >= 0 && poolParams[i] {
			return i
		}
		return -1
	}

	// carriers maps a local root object to the pool parameter its pooled
	// buffer came from (x := pool.Get(n), or m.Payload = pool.Get(n)).
	carriers := map[types.Object]int{}
	rootObj := func(e ast.Expr) types.Object {
		id := rootIdent(e)
		if id == nil {
			return nil
		}
		if obj := pass.Pkg.Info.Uses[id]; obj != nil {
			return obj
		}
		return pass.Pkg.Info.Defs[id]
	}
	// exprBorrows reports whether e contains a Get on a pool parameter
	// or is rooted at a carrier of one, returning the pool index.
	exprBorrows := func(e ast.Expr) int {
		found := -1
		ast.Inspect(e, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if i := poolGetOn(call); i >= 0 {
					found = i
					return false
				}
			}
			return true
		})
		if found >= 0 {
			return found
		}
		if obj := rootObj(e); obj != nil {
			if i, ok := carriers[obj]; ok {
				return i
			}
		}
		return -1
	}

	markRelease := func(arg ast.Expr, all bool) {
		if i := prog.rootParamIndex(n, arg); i >= 0 {
			s.releasesSome[i] = true
			if all {
				s.releasesAll[i] = true
			}
		}
	}

	// Top-level statements and defers release unconditionally.
	for _, st := range n.Body.List {
		var call *ast.CallExpr
		switch st := st.(type) {
		case *ast.ExprStmt:
			call, _ = ast.Unparen(st.X).(*ast.CallExpr)
		case *ast.DeferStmt:
			call = st.Call
		}
		if call == nil {
			continue
		}
		if _, ok := slabPutPool(pass, call); ok && len(call.Args) == 1 {
			markRelease(call.Args[0], true)
		}
	}

	shallowInspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if _, ok := slabPutPool(pass, m); ok && len(m.Args) == 1 {
				markRelease(m.Args[0], false)
			}
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "append" {
				for _, a := range m.Args[1:] {
					if i := prog.rootParamIndex(n, a); i >= 0 {
						s.transfersParam[i] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				// x, err := f(): one rhs feeds every lhs slot.
				var rhs ast.Expr
				if i < len(m.Rhs) {
					rhs = m.Rhs[i]
				} else if len(m.Rhs) == 1 {
					rhs = m.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				// Carrier tracking: a Get on a pool parameter assigned to a
				// local (possibly through a field path or a re-slice).
				r := ast.Unparen(rhs)
				if se, ok := r.(*ast.SliceExpr); ok {
					r = ast.Unparen(se.X)
				}
				if call, ok := r.(*ast.CallExpr); ok {
					if pi := poolGetOn(call); pi >= 0 {
						if obj := rootObj(lhs); obj != nil {
							carriers[obj] = pi
						}
					}
				}
				// Parameter stored into a field, element, or dereference:
				// ownership transfers into longer-lived state.
				switch ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if pi := prog.rootParamIndex(n, rhs); pi >= 0 {
						s.transfersParam[pi] = true
					}
				}
			}
		case *ast.SendStmt:
			if pi := prog.rootParamIndex(n, m.Value); pi >= 0 {
				s.transfersParam[pi] = true
			}
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if pi := prog.rootParamIndex(n, r); pi >= 0 {
					s.transfersParam[pi] = true
				}
				if pi := exprBorrows(r); pi >= 0 {
					s.borrowsPool = pi
				}
			}
		}
		return true
	})

	for _, site := range n.Calls {
		for j, arg := range site.Call.Args {
			if pi := prog.rootParamIndex(n, arg); pi >= 0 {
				s.relEdges = append(s.relEdges, relEdge{site: site, argIdx: j, paramIdx: pi})
			}
		}
	}
}

// joinFacts derives the goroutine-join base facts.
func (prog *Program) joinFacts(n *FuncNode, s *funcSummary) {
	pass := n.pass(prog)
	recordWait := func(ch ast.Expr) {
		if key, ok := chanKey(pass, ch); ok {
			s.waitsOnChans[key] = true
		}
		if id, ok := ast.Unparen(ch).(*ast.Ident); ok {
			if i := n.paramIndexOf(pass, id); i >= 0 {
				s.waitsOnParams[i] = true
			}
		}
	}
	shallowInspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Done", "Add":
				key, ok := wgKey(pass, sel.X)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Add" {
					s.addsOn[key] = true
					return true
				}
				s.donesOn[key] = true
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if i := n.paramIndexOf(pass, id); i >= 0 {
						s.wgDoneParams[i] = true
					}
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				recordWait(m.X)
			}
		case *ast.RangeStmt:
			if t := pass.exprType(m.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					recordWait(m.X)
				}
			}
		}
		return true
	})
}

// lockFacts walks the body tracking the lexically held mutex set,
// recording every direct acquisition and every resolved call with the
// held set at that point. Methods named *Locked start with the
// receiver's mu held, matching lockhold's convention.
func (prog *Program) lockFacts(n *FuncNode, s *funcSummary) {
	pass := n.pass(prog)
	sites := make(map[*ast.CallExpr]*CallSite, len(n.Calls))
	for _, c := range n.Calls {
		sites[c.Call] = c
	}
	var held []string
	if n.Decl != nil && strings.HasSuffix(n.Decl.Name.Name, "Locked") {
		if r := pass.recvTypeName(n.Decl); r != "" {
			held = append(held, r+".mu")
		}
	}
	walkLockFacts(pass, n.Body.List, held, sites, s)
}

func walkLockFacts(pass *Pass, stmts []ast.Stmt, held []string, sites map[*ast.CallExpr]*CallSite, s *funcSummary) {
	held = append([]string(nil), held...)
	record := func(e ast.Expr) {
		ast.Inspect(e, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok {
				if site := sites[call]; site != nil {
					s.lockCalls = append(s.lockCalls, lockCall{held: append([]string(nil), held...), site: site})
				}
			}
			return true
		})
	}
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if key, op := lockOp(pass, st.X); op != "" {
				switch op {
				case "Lock", "RLock":
					s.acquires = append(s.acquires, lockAcq{held: append([]string(nil), held...), key: key, pos: st.Pos()})
					held = append(held, key)
				case "Unlock", "RUnlock":
					held = removeLast(held, key)
				}
				continue
			}
			record(st.X)
		case *ast.DeferStmt, *ast.GoStmt:
			// defer mu.Unlock() keeps the region open; deferred and
			// spawned calls do not run at this program point.
			continue
		case *ast.AssignStmt:
			for _, r := range st.Rhs {
				record(r)
			}
		case *ast.DeclStmt:
			record(declExprs(st))
		case *ast.SendStmt:
			record(st.Value)
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				record(r)
			}
		case *ast.IfStmt:
			if st.Init != nil {
				walkLockFacts(pass, []ast.Stmt{st.Init}, held, sites, s)
			}
			record(st.Cond)
			walkLockFacts(pass, st.Body.List, held, sites, s)
			if st.Else != nil {
				walkLockFacts(pass, []ast.Stmt{st.Else}, held, sites, s)
			}
		case *ast.BlockStmt:
			walkLockFacts(pass, st.List, held, sites, s)
		case *ast.ForStmt:
			walkLockFacts(pass, st.Body.List, held, sites, s)
		case *ast.RangeStmt:
			record(st.X)
			walkLockFacts(pass, st.Body.List, held, sites, s)
		case *ast.SwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockFacts(pass, cc.Body, held, sites, s)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockFacts(pass, cc.Body, held, sites, s)
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLockFacts(pass, cc.Body, held, sites, s)
				}
			}
		case *ast.LabeledStmt:
			walkLockFacts(pass, []ast.Stmt{st.Stmt}, held, sites, s)
		}
	}
}

// declExprs wraps a declaration's initializer expressions for the call
// recorder.
func declExprs(st *ast.DeclStmt) ast.Expr {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok {
		return &ast.BadExpr{}
	}
	var exprs []ast.Expr
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			exprs = append(exprs, vs.Values...)
		}
	}
	if len(exprs) == 1 {
		return exprs[0]
	}
	// Multiple initializers are rare inside functions; a synthetic call
	// wrapper lets one Inspect cover them all.
	return &ast.CallExpr{Fun: &ast.BadExpr{}, Args: exprs}
}

// closeReleases propagates parameter releases through forwarding calls
// until no summary changes.
func (prog *Program) closeReleases() {
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			s := prog.summaries[n]
			for _, e := range s.relEdges {
				for _, callee := range e.site.Callees {
					cs := prog.summaries[callee]
					if cs == nil {
						continue
					}
					if cs.releasesSome[e.argIdx] && !s.releasesSome[e.paramIdx] {
						s.releasesSome[e.paramIdx] = true
						changed = true
					}
					if cs.transfersParam[e.argIdx] && !s.transfersParam[e.paramIdx] {
						s.transfersParam[e.paramIdx] = true
						changed = true
					}
					if cs.releasesOnErr[e.argIdx] && !s.releasesOnErr[e.paramIdx] {
						s.releasesOnErr[e.paramIdx] = true
						changed = true
					}
					if cs.releasesOnOk[e.argIdx] && !s.releasesOnOk[e.paramIdx] {
						s.releasesOnOk[e.paramIdx] = true
						changed = true
					}
				}
			}
		}
	}
}

// closeJoins propagates Done and channel-wait evidence through calls:
// field-keyed facts flow context-free; parameter-indexed facts map
// through the argument at each call site.
func (prog *Program) closeJoins() {
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			s := prog.summaries[n]
			pass := n.pass(prog)
			for _, site := range n.Calls {
				for _, callee := range site.Callees {
					cs := prog.summaries[callee]
					if cs == nil {
						continue
					}
					for key := range cs.donesOn {
						if !strings.HasPrefix(key, "@") && !s.donesOn[key] {
							s.donesOn[key] = true
							changed = true
						}
					}
					for key := range cs.waitsOnChans {
						if !strings.HasPrefix(key, "@") && !s.waitsOnChans[key] {
							s.waitsOnChans[key] = true
							changed = true
						}
					}
					for j := range cs.wgDoneParams {
						if j >= len(site.Call.Args) {
							continue
						}
						if key, ok := wgKey(pass, stripAddr(site.Call.Args[j])); ok && !s.donesOn[key] {
							s.donesOn[key] = true
							changed = true
						}
					}
					for j := range cs.waitsOnParams {
						if j >= len(site.Call.Args) {
							continue
						}
						arg := site.Call.Args[j]
						if key, ok := chanKey(pass, arg); ok && !s.waitsOnChans[key] {
							s.waitsOnChans[key] = true
							changed = true
						}
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if i := n.paramIndexOf(pass, id); i >= 0 && !s.waitsOnParams[i] {
								s.waitsOnParams[i] = true
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// stripAddr unwraps a leading & so &wg and wg key identically.
func stripAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return ast.Unparen(e)
}

// closeLocks computes mayAcquire: direct acquisitions plus everything
// reachable through synchronous calls. Only "Type.field" keys propagate
// across functions; a callee's local mutex is meaningless to callers.
func (prog *Program) closeLocks() {
	for _, n := range prog.Nodes {
		s := prog.summaries[n]
		for _, a := range s.acquires {
			if _, ok := s.mayAcquire[a.key]; !ok {
				s.mayAcquire[a.key] = &lockVia{pos: a.pos, pkg: n.Pkg}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.Nodes {
			s := prog.summaries[n]
			for _, lc := range s.lockCalls {
				for _, callee := range lc.site.Callees {
					cs := prog.summaries[callee]
					if cs == nil {
						continue
					}
					for _, key := range sortedKeys(cs.mayAcquire) {
						if strings.HasPrefix(key, ".") {
							continue
						}
						if _, ok := s.mayAcquire[key]; !ok {
							s.mayAcquire[key] = &lockVia{pos: lc.site.Call.Pos(), pkg: n.Pkg, callee: callee}
							changed = true
						}
					}
				}
			}
		}
	}
}

func sortedKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
