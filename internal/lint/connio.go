package lint

import (
	"go/ast"
	"strings"
)

// connIOPkgs are the packages confined away from raw connection I/O: a
// stuck peer must cost bounded wall-clock, never a wedged goroutine (the
// paper's serving path holds frame deadlines), and wire.Conn is where
// every connection deadline is armed. sched is in scope so no scheduler
// state machine touches a conn under its locks either.
var connIOPkgs = []string{"media", "edge", "faults", "sched"}

// ConnIO confines connection I/O to package wire: in connIOPkgs no
// conn-typed value is read, written, or handed to a wire/io reader or
// writer. A conn goes to wire.NewConn and is used through the wire.Conn
// from then on; wire's own tests pin the deadline on every wire.Conn
// read and write. Thin forwarders (Read/Write methods on conn-like
// wrapper types, e.g. faults.Conn) are exempt: they relay I/O that a
// wire.Conn started.
var ConnIO = &Analyzer{
	Name: "connio",
	Doc: "confine conn I/O to package wire: elsewhere no conn is read, written, " +
		"or handed to a wire/io reader or writer (wire.Conn arms every deadline)",
	Run: runConnIO,
}

func runConnIO(pass *Pass) {
	if !pass.inPackages(connIOPkgs...) {
		return
	}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		if isConnForwarder(pass, fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if connExpr, isIO := connIOCall(pass, call); isIO {
				pass.Reportf(call.Pos(), "conn I/O on %q outside package wire: frame it through a wire.Conn, which arms a deadline on every read and write (a stalled peer wedges this goroutine forever)", connExpr)
			}
			return true
		})
	})
}

// connIOCall classifies a call as conn I/O: a Read/Write method on a
// conn-typed receiver, or a conn-typed value passed to a wire/io/bufio
// reader or writer (wire.Read and wire.Write take the conn as an
// argument, not as a receiver).
func connIOCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") && isConnType(pass.exprType(sel.X)) {
			return exprText(sel.X), true
		}
	}
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch pathBase(fn.Pkg().Path()) {
	case "wire", "io", "bufio", "binary", "gob", "json":
	default:
		return "", false
	}
	name := strings.ToLower(fn.Name())
	if name != "copy" && !strings.HasPrefix(name, "read") && !strings.HasPrefix(name, "decode") &&
		!strings.HasPrefix(name, "write") && !strings.HasPrefix(name, "encode") {
		return "", false
	}
	for _, arg := range call.Args {
		if isConnType(pass.exprType(arg)) {
			return exprText(ast.Unparen(arg)), true
		}
	}
	return "", false
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
