package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ioDir distinguishes read-side from write-side conn I/O so the right
// deadline setter is demanded.
type ioDir int

const (
	ioRead ioDir = iota
	ioWrite
)

// connIOPkgs are the packages where every connection touch must be
// deadline-armed: a stuck peer must cost bounded wall-clock, never a
// wedged goroutine (the paper's serving path holds frame deadlines).
var connIOPkgs = []string{"media", "wire", "faults", "edge"}

// ConnIO requires every net.Conn read or write — direct method calls and
// conn arguments handed to wire.Read/wire.Write/io helpers — to be
// covered by a SetReadDeadline/SetWriteDeadline (or SetDeadline) either
// in the enclosing function or in every in-package caller reaching it.
// Thin forwarders (Read/Write methods on conn-like wrapper types, e.g.
// faults.Conn) are exempt: the deadline obligation stays with the code
// that owns the conn.
var ConnIO = &Analyzer{
	Name: "connio",
	Doc: "require SetReadDeadline/SetWriteDeadline before conn reads and writes, " +
		"in the enclosing function or all of its in-package callers",
	Run: runConnIO,
}

func runConnIO(pass *Pass) {
	if !pass.inPackages(connIOPkgs...) {
		return
	}

	arms, callers, keyOf := connCoverageIndex(pass)

	// covered reports whether every path into fn arms dir before reaching
	// it: the function arms it itself, or all in-package callers are
	// covered. Cycles and exported entry points with no callers resolve to
	// uncovered.
	memo := map[string]int{} // 0 unknown, 1 in-progress, 2 covered, 3 uncovered
	var covered func(key string, dir ioDir) bool
	covered = func(key string, dir ioDir) bool {
		if arms[key][dir] {
			return true
		}
		switch memo[key] {
		case 1, 3:
			return false
		case 2:
			return true
		}
		memo[key] = 1
		cs := callers[key]
		ok := len(cs) > 0
		for _, c := range cs {
			if !covered(c, dir) {
				ok = false
				break
			}
		}
		if ok {
			memo[key] = 2
		} else {
			memo[key] = 3
		}
		return ok
	}

	pass.eachFunc(func(fd *ast.FuncDecl) {
		if isConnForwarder(pass, fd) {
			return
		}
		key := keyOf(fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			dir, connExpr, isIO := connIOCall(pass, call)
			if !isIO {
				return true
			}
			// memo is per (key,dir) conceptually; directions share the memo
			// map only within one query, so reset between queries.
			clear(memo)
			if covered(key, dir) {
				return true
			}
			verb, setter := "read from", "SetReadDeadline"
			if dir == ioWrite {
				verb, setter = "write to", "SetWriteDeadline"
			}
			pass.Reportf(call.Pos(), "%s conn %q without a deadline: call %s here or in every caller (a stalled peer wedges this goroutine forever)", verb, connExpr, setter)
			return true
		})
	})
}

// connCoverageIndex builds the armed-direction and caller maps the
// coverage query runs over. With the whole-program call graph available
// (the standalone driver), callers cross package boundaries and
// interface dispatch, and calls inside function literals are attributed
// to the enclosing declaration — the same lexical attribution armedDirs
// uses. Without it (the vet unit mode), the index degrades to the
// intra-package view.
func connCoverageIndex(pass *Pass) (map[string]map[ioDir]bool, map[string][]string, func(*ast.FuncDecl) string) {
	if prog := pass.Prog; prog != nil {
		arms := map[string]map[ioDir]bool{}
		callers := map[string][]string{}
		for _, n := range prog.Nodes {
			if n.Decl != nil {
				arms[n.Key] = prog.summary(n).arms
			}
			decl := n
			if n.Parent != nil {
				decl = n.Parent
			}
			for _, site := range n.Calls {
				for _, callee := range site.Callees {
					if callee.Decl == nil || callee.Key == decl.Key {
						continue
					}
					callers[callee.Key] = append(callers[callee.Key], decl.Key)
				}
			}
		}
		keyOf := func(fd *ast.FuncDecl) string {
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				return pass.funcKey(fd)
			}
			return slabFuncKey(fn)
		}
		return arms, callers, keyOf
	}

	arms := map[string]map[ioDir]bool{}
	callers := map[string][]string{}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		key := pass.funcKey(fd)
		arms[key] = armedDirs(pass, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if ck := pass.callKey(call); ck != "" && ck != key {
				callers[ck] = append(callers[ck], key)
			}
			return true
		})
	})
	return arms, callers, pass.funcKey
}

// connIOCall classifies a call as conn I/O: a Read/Write method on a
// conn-typed receiver, or a conn-typed value passed to a wire/io/bufio
// reader or writer (the repo does its framing through wire.Read and
// wire.Write, so the conn shows up as an argument, not a receiver).
func connIOCall(pass *Pass, call *ast.CallExpr) (ioDir, string, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isConnType(pass.exprType(sel.X)) {
			switch sel.Sel.Name {
			case "Read":
				return ioRead, exprText(sel.X), true
			case "Write":
				return ioWrite, exprText(sel.X), true
			}
		}
	}
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return 0, "", false
	}
	switch pathBase(fn.Pkg().Path()) {
	case "wire", "io", "bufio", "binary", "gob", "json":
	default:
		return 0, "", false
	}
	// Lower-cased so a package's own unexported framing helpers (wire's
	// readFrame, frameWriter.writeFrame) count like the exported ones.
	var dir ioDir
	name := strings.ToLower(fn.Name())
	switch {
	case strings.HasPrefix(name, "read") || strings.HasPrefix(name, "decode"):
		dir = ioRead
	case strings.HasPrefix(name, "write") || strings.HasPrefix(name, "encode") || name == "copy":
		dir = ioWrite
	default:
		return 0, "", false
	}
	for _, arg := range call.Args {
		if isConnType(pass.exprType(arg)) {
			return dir, exprText(ast.Unparen(arg)), true
		}
	}
	return 0, "", false
}

// armedDirs scans a function body for deadline setters on any conn-typed
// receiver and reports the I/O directions they bound.
func armedDirs(pass *Pass, fd *ast.FuncDecl) map[ioDir]bool {
	dirs := make(map[ioDir]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isConnType(pass.exprType(sel.X)) {
			return true
		}
		switch sel.Sel.Name {
		case "SetDeadline":
			dirs[ioRead] = true
			dirs[ioWrite] = true
		case "SetReadDeadline":
			dirs[ioRead] = true
		case "SetWriteDeadline":
			dirs[ioWrite] = true
		}
		return true
	})
	return dirs
}

// isConnForwarder exempts Read/Write methods declared on conn-like
// wrapper types: they relay to an inner conn whose deadlines the caller
// manages (deadline calls are forwarded the same way).
func isConnForwarder(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	switch fd.Name.Name {
	case "Read", "Write", "Close", "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
	default:
		return false
	}
	return isConnType(pass.exprType(fd.Recv.List[0].Type))
}

// exprText renders an expression for diagnostics.
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprText(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	default:
		return "conn"
	}
}
