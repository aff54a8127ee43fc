package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Program is the whole-run view of the loaded packages: a call graph
// over every function declaration and literal, plus per-function
// summaries propagated to a fixpoint (see summary.go). Program-scoped
// analyzers (ownership, lockorder, goleak) run once over it, and the
// per-package analyzers connio and arenapair consult it to see across
// package boundaries.
//
// Functions are keyed by "pkgbase[.Recv].Name" strings rather than by
// *types.Func identity: each target package type-checks from source
// while its dependencies come from gc export data, so the same function
// has distinct type objects depending on which side of an import it is
// seen from. The string key unifies the two views (and lets fixture
// packages stand in for the real tree, like every other analyzer
// scope).
type Program struct {
	Pkgs []*Package
	// Funcs maps canonical keys to declaration nodes.
	Funcs map[string]*FuncNode
	// Nodes lists every analyzed function body — declarations and
	// function literals — in deterministic source order.
	Nodes []*FuncNode

	passes map[*Package]*Pass
	lits   map[*ast.FuncLit]*FuncNode
	// closedChans keys every channel that some statement anywhere in the
	// program closes (goleak's close-evidence set; literals included).
	closedChans map[string]bool

	summaries map[*FuncNode]*funcSummary
}

// FuncNode is one analyzable function body: a declaration or a function
// literal (literals get their own node because their bodies run on
// their own schedule — often on another goroutine — and must not be
// conflated with the enclosing declaration's control flow).
type FuncNode struct {
	// Key is "pkgbase[.Recv].Name" for declarations and
	// "<parentKey>$<n>" for the n-th literal nested in a declaration.
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Body *ast.BlockStmt
	Fn   *types.Func // nil for literals
	// Parent is the declaration node a literal is nested in.
	Parent *FuncNode
	// Calls are the statically resolvable call sites in this body,
	// excluding those inside nested literals (they belong to the
	// literal's node).
	Calls []*CallSite
	// Spawns are the `go` statements in this body.
	Spawns []*SpawnSite
}

// pass returns the scratch Pass for this node's package, giving the
// graph and summary builders access to the Pass-based type helpers.
func (n *FuncNode) pass(prog *Program) *Pass {
	return prog.passes[n.Pkg]
}

// CallSite is one call expression with its resolved callees: exactly
// one for a static call to an analyzed function, possibly several for a
// call through an interface method (every analyzed method with the
// right name whose receiver implements the interface), and none for
// calls into code outside the load (stdlib, export-only deps).
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncNode
	// Iface is true when the callees were resolved through an interface
	// method, i.e. they over-approximate the dynamic target.
	Iface bool
}

// SpawnSite is one `go` statement. Exactly one of Lit and Callees is
// set when the spawned function is analyzable; both empty means the
// target is outside the load (or a dynamic function value).
type SpawnSite struct {
	Go      *ast.GoStmt
	Lit     *FuncNode
	Callees []*FuncNode
}

// BuildProgram constructs the call graph over pkgs. Summaries are
// computed lazily by the first analyzer that asks for them.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       make(map[string]*FuncNode),
		passes:      make(map[*Package]*Pass),
		lits:        make(map[*ast.FuncLit]*FuncNode),
		closedChans: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		prog.passes[pkg] = &Pass{Pkg: pkg}
	}

	// Pass 1: one node per function declaration, plus one per literal
	// nested anywhere inside it (literals in literals included).
	for _, pkg := range pkgs {
		pass := prog.passes[pkg]
		pass.eachFunc(func(fd *ast.FuncDecl) {
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				return
			}
			node := &FuncNode{Key: slabFuncKey(fn), Pkg: pkg, Decl: fd, Body: fd.Body, Fn: fn}
			prog.Funcs[node.Key] = node
			prog.Nodes = append(prog.Nodes, node)
			nlit := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				nlit++
				litNode := &FuncNode{
					Key:    fmt.Sprintf("%s$%d", node.Key, nlit),
					Pkg:    pkg,
					Lit:    lit,
					Body:   lit.Body,
					Parent: node,
				}
				prog.lits[lit] = litNode
				prog.Nodes = append(prog.Nodes, litNode)
				return true
			})
		})
	}

	// Pass 2: resolve call and spawn sites per node, and collect the
	// program-wide closed-channel set.
	for _, node := range prog.Nodes {
		prog.collectSites(node)
	}
	for _, pkg := range pkgs {
		pass := prog.passes[pkg]
		pass.eachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
					if key, ok := chanKey(pass, call.Args[0]); ok {
						prog.closedChans[key] = true
					}
				}
				return true
			})
		})
	}
	return prog
}

// shallowInspect walks body without descending into nested function
// literals: their statements belong to the literal's own node.
func shallowInspect(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

func (prog *Program) collectSites(node *FuncNode) {
	pass := node.pass(prog)
	shallowInspect(node.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			sp := &SpawnSite{Go: n}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				sp.Lit = prog.lits[lit]
			} else {
				sp.Callees, _ = prog.resolveCall(pass, n.Call)
			}
			node.Spawns = append(node.Spawns, sp)
			// The spawned call's arguments are still evaluated here; its
			// CallExpr is intentionally not recorded as a synchronous call.
			return false
		case *ast.CallExpr:
			callees, iface := prog.resolveCall(pass, n)
			if len(callees) > 0 {
				node.Calls = append(node.Calls, &CallSite{Call: n, Callees: callees, Iface: iface})
			}
		}
		return true
	})
}

// resolveCall maps a call expression to the analyzed functions it may
// invoke. Static calls resolve by key; interface-method calls resolve
// to every analyzed method with the same name whose receiver type
// implements the interface (an over-approximation, used where missing
// an edge would hide a deadlock or a leak).
func (prog *Program) resolveCall(pass *Pass, call *ast.CallExpr) ([]*FuncNode, bool) {
	fn := pass.calleeFunc(call)
	if fn == nil {
		return nil, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			return prog.implementers(fn.Name(), iface), true
		}
	}
	if n := prog.Funcs[slabFuncKey(fn)]; n != nil {
		return []*FuncNode{n}, false
	}
	return nil, false
}

// implementers returns the analyzed methods named name whose receiver
// type satisfies iface, in deterministic key order.
func (prog *Program) implementers(name string, iface *types.Interface) []*FuncNode {
	var out []*FuncNode
	for _, node := range prog.Nodes {
		if node.Fn == nil || node.Fn.Name() != name {
			continue
		}
		sig, ok := node.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// params returns the parameter identifiers of a node's function in
// declaration order (anonymous and blank parameters yield nil slots so
// indexes line up with the signature).
func (n *FuncNode) params() []*ast.Ident {
	var ft *ast.FuncType
	switch {
	case n.Decl != nil:
		ft = n.Decl.Type
	case n.Lit != nil:
		ft = n.Lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*ast.Ident
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				out = append(out, nil)
			} else {
				out = append(out, name)
			}
		}
	}
	return out
}

// paramIndexOf returns the index of the parameter ident obj resolves
// to, -1 when the object is not one of the node's parameters.
func (n *FuncNode) paramIndexOf(pass *Pass, id *ast.Ident) int {
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		obj = pass.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return -1
	}
	for i, p := range n.params() {
		if p == nil {
			continue
		}
		if pass.Pkg.Info.Defs[p] == obj {
			return i
		}
	}
	return -1
}

// chanKey names a channel expression so waits and closes can be matched
// program-wide: "Type.field" for a field on a named type (stable across
// functions and packages), "@file:line" of the declaring object for
// locals, parameters, and package-level variables (stable across every
// closure and function in the same package that references the same
// object). The boolean is false for expressions that are not
// channel-typed or not rooted in a trackable object.
func chanKey(pass *Pass, e ast.Expr) (string, bool) {
	t := pass.exprType(e)
	if t == nil {
		return "", false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return "", false
	}
	return objLikeKey(pass, e)
}

// wgKey is chanKey's analogue for sync.WaitGroup values.
func wgKey(pass *Pass, e ast.Expr) (string, bool) {
	t := pass.exprType(e)
	if !isWaitGroupType(t) {
		return "", false
	}
	return objLikeKey(pass, e)
}

func objLikeKey(pass *Pass, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if base := namedOf(pass.exprType(x.X)); base != nil {
			return base.Obj().Name() + "." + x.Sel.Name, true
		}
		if obj := pass.Pkg.Info.Uses[x.Sel]; obj != nil {
			return objPosKey(pass, obj), true
		}
	case *ast.Ident:
		obj := pass.Pkg.Info.Uses[x]
		if obj == nil {
			obj = pass.Pkg.Info.Defs[x]
		}
		if obj != nil {
			return objPosKey(pass, obj), true
		}
	}
	return "", false
}

// objPosKey keys an object by its declaration position: identity-true
// within a load, deterministic across runs, and never shown to users.
func objPosKey(pass *Pass, obj types.Object) string {
	pos := pass.Pkg.Fset.Position(obj.Pos())
	return fmt.Sprintf("@%s:%d", pos.Filename, pos.Line)
}

// isWaitGroupType matches sync.WaitGroup by value or pointer.
func isWaitGroupType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "WaitGroup"
}

// isSlabPoolType matches par.SlabPool by value or pointer, on the
// package's import-path base so fixtures qualify.
func isSlabPoolType(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Pkg() != nil &&
		pathBase(n.Obj().Pkg().Path()) == "par" && n.Obj().Name() == "SlabPool"
}

// nodeLabel renders a node for diagnostics: the canonical key for
// declarations, "func literal in <parent>" for literals.
func (n *FuncNode) label() string {
	if n.Lit != nil {
		parent := "package scope"
		if n.Parent != nil {
			parent = n.Parent.Key
		}
		return "func literal in " + parent
	}
	return n.Key
}

// inPackages reports whether the node's package base is one of names.
func (n *FuncNode) inPackages(names ...string) bool {
	base := pathBase(n.Pkg.Path)
	for _, name := range names {
		if base == name {
			return true
		}
	}
	return false
}
