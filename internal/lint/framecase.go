package lint

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FrameCase enforces protocol-surface completeness around the wire
// frame vocabulary, so widening the protocol (a new Type* constant, a
// new payload codec) cannot silently leave a reader, a decoder, or the
// fuzz corpus behind:
//
//   - every switch over the wire Type enum must either carry a default
//     clause or handle every exported Type* constant — a reader that
//     falls through an unlisted frame type drops it on the floor;
//   - in the wire package itself, Encode<X>/Decode<X> must come in
//     pairs (Alias decoders count toward their base codec), the maxType
//     sentinel must equal the highest assigned constant, and every
//     non-Alias decoder must be exercised by some Fuzz* function (the
//     symmetry that keeps Read's bounds honest).
//
// The fuzz check reads the package's test files syntax-only.
var FrameCase = &Analyzer{
	Name: "framecase",
	Doc: "require wire frame-type switches to be exhaustive or defaulted, " +
		"and marshal/unmarshal/fuzz symmetry for every frame codec",
	Run: runFrameCase,
}

func runFrameCase(pass *Pass) {
	checkTypeSwitches(pass)
	if pass.inPackages("wire") {
		checkCodecPairs(pass)
		checkMaxType(pass)
		checkFuzzCoverage(pass)
	}
}

// wireTypeEnum matches the named type `Type` declared in a wire
// package (the real one or a fixture stand-in).
func wireTypeEnum(t types.Type) *types.Named {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return nil
	}
	if n.Obj().Name() != "Type" || pathBase(n.Obj().Pkg().Path()) != "wire" {
		return nil
	}
	return n
}

// enumConsts returns the exported constants of the enum's declaring
// package whose type is the enum, by name.
func enumConsts(n *types.Named) map[string]*types.Const {
	out := map[string]*types.Const{}
	scope := n.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || !types.Identical(c.Type(), n) {
			continue
		}
		out[name] = c
	}
	return out
}

func checkTypeSwitches(pass *Pass) {
	pass.eachFunc(func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			sw, ok := nd.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			enum := wireTypeEnum(pass.exprType(sw.Tag))
			if enum == nil {
				return true
			}
			covered := map[string]bool{}
			hasDefault, nonConst := false, false
			for _, c := range sw.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					var id *ast.Ident
					switch e := ast.Unparen(e).(type) {
					case *ast.Ident:
						id = e
					case *ast.SelectorExpr:
						id = e.Sel
					}
					var obj types.Object
					if id != nil {
						obj = pass.Pkg.Info.Uses[id]
					}
					if c, ok := obj.(*types.Const); ok {
						covered[c.Name()] = true
					} else {
						nonConst = true
					}
				}
			}
			if hasDefault {
				return true
			}
			all := enumConsts(enum)
			var missing []string
			for name := range all {
				if !covered[name] {
					missing = append(missing, name)
				}
			}
			sort.Strings(missing)
			if nonConst && len(missing) > 0 {
				pass.Reportf(sw.Pos(),
					"switch on wire frame type mixes non-constant cases without a default: unlisted frame types fall through silently")
				return true
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(),
					"switch on wire frame type has no default and misses %s: new frame types would fall through silently",
					strings.Join(missing, ", "))
			}
			return true
		})
	})
}

// codecBase strips the Encode/Decode prefix and the Alias suffix,
// yielding the payload name a pair is matched on.
func codecBase(name string) (string, bool) {
	base := ""
	switch {
	case strings.HasPrefix(name, "Encode"):
		base = strings.TrimPrefix(name, "Encode")
	case strings.HasPrefix(name, "Decode"):
		base = strings.TrimPrefix(name, "Decode")
	default:
		return "", false
	}
	base = strings.TrimSuffix(base, "Alias")
	if base == "" {
		return "", false
	}
	return base, true
}

func checkCodecPairs(pass *Pass) {
	encodes := map[string]token.Pos{}
	decodes := map[string]token.Pos{}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		if fd.Recv != nil || !fd.Name.IsExported() {
			return
		}
		base, ok := codecBase(fd.Name.Name)
		if !ok {
			return
		}
		if strings.HasPrefix(fd.Name.Name, "Encode") {
			encodes[base] = fd.Pos()
		} else if _, ok := decodes[base]; !ok {
			// Keep the first (non-Alias) decoder position per base.
			decodes[base] = fd.Pos()
		}
	})
	for base, pos := range encodes {
		if _, ok := decodes[base]; !ok {
			pass.Reportf(pos, "Encode%s has no matching Decode%s: a frame that cannot be read back is write-only garbage", base, base)
		}
	}
	for base, pos := range decodes {
		if _, ok := encodes[base]; !ok {
			pass.Reportf(pos, "Decode%s has no matching Encode%s: nothing in-tree can produce the frames it parses", base, base)
		}
	}
}

func checkMaxType(pass *Pass) {
	if pass.Pkg.Types == nil {
		return
	}
	scope := pass.Pkg.Types.Scope()
	mt, ok := scope.Lookup("maxType").(*types.Const)
	if !ok {
		return
	}
	enum := wireTypeEnum(mt.Type())
	if enum == nil {
		return
	}
	var maxName string
	var maxVal constant.Value
	for name, c := range enumConsts(enum) {
		if maxVal == nil || constant.Compare(maxVal, token.LSS, c.Val()) {
			maxVal, maxName = c.Val(), name
		}
	}
	if maxVal != nil && constant.Compare(mt.Val(), token.LSS, maxVal) {
		pass.Reportf(mt.Pos(),
			"maxType (%s) is below the highest assigned frame type %s (%s): Read rejects valid frames",
			mt.Val().ExactString(), maxName, maxVal.ExactString())
	}
}

// checkFuzzCoverage demands that every non-Alias decoder is mentioned
// in some Fuzz* function of the package's tests. Test files are parsed
// syntax-only — mention is a name occurrence, which is exactly the
// guarantee wanted: the fuzz corpus feeds the decoder.
func checkFuzzCoverage(pass *Pass) {
	if len(pass.Pkg.TestFiles) == 0 {
		return
	}
	mentioned := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range pass.Pkg.TestFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasPrefix(fd.Name.Name, "Fuzz") {
				continue
			}
			ast.Inspect(fd.Body, func(nd ast.Node) bool {
				if id, ok := nd.(*ast.Ident); ok {
					mentioned[id.Name] = true
				}
				return true
			})
		}
	}
	pass.eachFunc(func(fd *ast.FuncDecl) {
		name := fd.Name.Name
		if fd.Recv != nil || !strings.HasPrefix(name, "Decode") || strings.HasSuffix(name, "Alias") {
			return
		}
		if _, ok := codecBase(name); !ok {
			return
		}
		if !mentioned[name] {
			pass.Reportf(fd.Pos(),
				"decoder %s is not exercised by any Fuzz* function: malformed-input handling is untested", name)
		}
	})
}
