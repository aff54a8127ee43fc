package lint

import (
	"go/ast"
	"go/types"
)

// isConnType reports whether t behaves like a net.Conn: its method set
// carries Read/Write plus the deadline setters. Detection is structural
// so it covers net.Conn itself, *net.TCPConn, and wrappers like
// faults.Conn without needing the net package's type object in scope.
func isConnType(t types.Type) bool {
	if t == nil {
		return false
	}
	ms := types.NewMethodSet(t)
	if ms.Lookup(nil, "SetReadDeadline") == nil && ms.Lookup(nil, "SetDeadline") == nil {
		return false
	}
	read := ms.Lookup(nil, "Read")
	write := ms.Lookup(nil, "Write")
	return read != nil && write != nil
}

// exprType returns the static type of e, nil when unknown.
func (p *Pass) exprType(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// calleeFunc resolves a call to the *types.Func it invokes (function or
// method), nil for builtins, conversions, and dynamic calls through
// function values.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// calleeIn reports whether the call invokes pkgPath.name, with pkgPath
// matched on its import-path base (so fixture copies of a package
// satisfy the same analyzers as the real one).
func (p *Pass) calleeIn(call *ast.CallExpr, pkgBase, name string) bool {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return pathBase(fn.Pkg().Path()) == pkgBase && fn.Name() == name
}

// namedOf unwraps pointers and aliases down to a named type, nil if the
// core type is unnamed.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return nil
		}
	}
}

// recvTypeName returns the receiver's named-type name for a method
// declaration, "" for plain functions.
func (p *Pass) recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := p.exprType(fd.Recv.List[0].Type)
	if n := namedOf(t); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named := namedOf(t)
	if named != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	ms := types.NewMethodSet(t)
	sel := ms.Lookup(nil, "Error")
	if sel == nil {
		return false
	}
	sig, ok := sel.Obj().Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
}

// mutexKey identifies a sync.Mutex/RWMutex value lexically held via
// "Owner.field" (e.g. "Server.mu") so lock-order edges can be matched
// against the documented hierarchy. The owner is the named type of the
// expression the mutex field is selected from; a bare mutex variable
// keys as ".name".
func (p *Pass) mutexKey(sel ast.Expr) (string, bool) {
	switch e := ast.Unparen(sel).(type) {
	case *ast.SelectorExpr:
		if !isMutexType(p.exprType(e)) {
			return "", false
		}
		if base := namedOf(p.exprType(e.X)); base != nil {
			return base.Obj().Name() + "." + e.Sel.Name, true
		}
		return "." + e.Sel.Name, true
	case *ast.Ident:
		if !isMutexType(p.exprType(e)) {
			return "", false
		}
		return "." + e.Name, true
	}
	return "", false
}

// isMutexType matches sync.Mutex and sync.RWMutex (by value or pointer).
func isMutexType(t types.Type) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	if n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"
}
