package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path as the build system sees it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors holds soft type-check problems. Analysis proceeds on a
	// best-effort basis when non-empty, mirroring go/analysis with
	// RunDespiteErrors unset elsewhere.
	TypeErrors []error
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") relative to dir into type-checked
// packages. It shells out to `go list -export -deps` so module
// resolution, build constraints, and compiled export data all come from
// the real build system, then parses and type-checks only the matched
// (non-dependency) packages from source. Test files are not loaded:
// nslint checks the shipping tree, and its invariants exempt tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []*listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		lp := p
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, &lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, t := range targets {
		if t.Error != nil && len(t.GoFiles) == 0 {
			return nil, fmt.Errorf("lint: %s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// checkPackage parses and type-checks one listed package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, t *listedPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range t.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(t.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var softErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { softErrs = append(softErrs, err) },
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil && tpkg == nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", t.ImportPath, err)
	}
	return &Package{
		Path:       t.ImportPath,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: softErrs,
	}, nil
}
