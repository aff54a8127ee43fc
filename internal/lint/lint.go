// Package lint implements nslint: a suite of repo-specific static
// analyzers that mechanically enforce the invariants the NeuroScaler
// serving path depends on — byte-determinism of codec output, paired
// arena Get/Put, connection I/O confined to the deadline-arming wire
// package, no blocking calls under locks, mutex-guarded field
// discipline, %w error wrapping across package boundaries, and the
// interprocedural properties built on the call-graph dataflow layer:
// pooled-buffer ownership linearity (ownership), reference balance
// (refbalance), deadline-budget flow (budgetflow), the repo-wide
// lock-acquisition order (lockorder), and goroutine join evidence
// (goleak). An invariant a test can pin is pinned by a test instead:
// nslint keeps only the checks no test makes. See DESIGN.md
// "Invariants" for the rationale behind each analyzer and how to
// suppress a finding.
//
// The framework mirrors golang.org/x/tools/go/analysis in shape but is
// built on the standard library only: packages are resolved and
// type-checked via `go list -export` (see load.go), each Analyzer gets a
// Pass with the ASTs and type information, and diagnostics are filtered
// through //nslint:disable suppressions before reporting.
//
// Program-scoped analyzers additionally see a Program (callgraph.go): a
// call graph over every loaded package — function literals are
// first-class nodes, interface calls resolve to analyzed implementers —
// with per-function summaries (summary.go) of release/transfer
// behavior, lock acquisition sets, and WaitGroup/channel join facts,
// each propagated to fixpoint so evidence several calls away still
// counts.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one nslint check. Per-package analyzers set Run;
// program-scoped analyzers (those that reason across call and package
// boundaries) set RunProgram and execute once per invocation over the
// whole call graph. An analyzer may set both.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// //nslint:disable comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the per-package check, reporting via pass.Reportf.
	Run func(pass *Pass)
	// RunProgram performs the whole-program check over every loaded
	// package.
	RunProgram func(pass *ProgramPass)
}

// Pass carries one package's worth of inputs to an Analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-run call graph, available to per-package
	// analyzers that want interprocedural context (arenapair,
	// budgetflow).
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole-run inputs to a program-scoped
// Analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos, which must belong to pkg's FileSet.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All is the full nslint suite in reporting order.
var All = []*Analyzer{
	Determinism,
	ArenaPair,
	ConnIO,
	BudgetFlow,
	LockHold,
	SeqSafe,
	ErrWrap,
	Ownership,
	RefBalance,
	LockOrder,
	GoLeak,
}

// ByName resolves a comma-separated analyzer list ("" selects All).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All, nil
	}
	byName := make(map[string]*Analyzer, len(All))
	for _, a := range All {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics, sorted by position. Suppressed findings are dropped;
// malformed suppressions (no "-- reason") are themselves reported, and
// so are stale ones — a directive naming an analyzer in the run set
// that suppressed nothing this run (the justification ledger stays
// honest as analyzers evolve). Suppressions from every package are
// merged into one filename/line index so program-scoped findings honor
// them no matter which package's pass surfaced them.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	sup := &suppressions{byFileLine: make(map[string]map[int][]*supEntry)}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgSup, bad := collectSuppressions(pkg)
		diags = append(diags, bad...)
		for file, lines := range pkgSup.byFileLine {
			if sup.byFileLine[file] == nil {
				sup.byFileLine[file] = lines
				continue
			}
			for line, names := range lines {
				sup.byFileLine[file][line] = append(sup.byFileLine[file][line], names...)
			}
		}
	}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &raw})
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &raw})
	}
	for _, d := range raw {
		if sup.covers(d) {
			continue
		}
		diags = append(diags, d)
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, lines := range sup.byFileLine {
		for _, entries := range lines {
			for _, e := range entries {
				if e.used || (e.name != "*" && !ran[e.name]) {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      e.pos,
					Analyzer: "nslint",
					Message:  fmt.Sprintf("stale suppression: no %q finding is reported here anymore; delete the directive", e.name),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// suppressions indexes //nslint:disable comments: a finding on line L of
// a file is suppressed when a disable comment for its analyzer sits on
// line L or L-1.
type suppressions struct {
	// byFileLine maps filename -> line -> directive entries active there
	// (an entry naming "*" disables every analyzer).
	byFileLine map[string]map[int][]*supEntry
}

// supEntry is one analyzer name from one //nslint:disable directive.
// used flips when the entry actually absorbs a diagnostic, so unused
// directives can be reported as stale.
type supEntry struct {
	name string
	pos  token.Position
	used bool
}

// suppressRe is anchored to the comment's start so prose that merely
// quotes the directive form (analyzer doc comments) is not indexed.
var suppressRe = regexp.MustCompile(`^//\s*nslint:disable\s+([a-z*,\s]+?)\s*(?:--\s*(.*))?$`)

// collectSuppressions scans a package's comments for nslint directives.
// A directive without a non-empty "-- reason" clause is itself a
// diagnostic: suppressions must be justified.
func collectSuppressions(pkg *Package) (*suppressions, []Diagnostic) {
	s := &suppressions{byFileLine: make(map[string]map[int][]*supEntry)}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := suppressRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "nslint",
						Message:  `suppression needs a justification: //nslint:disable <name> -- reason`,
					})
					continue
				}
				lines := s.byFileLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*supEntry)
					s.byFileLine[pos.Filename] = lines
				}
				for _, name := range strings.Split(m[1], ",") {
					name = strings.TrimSpace(name)
					if name != "" {
						lines[pos.Line] = append(lines[pos.Line], &supEntry{name: name, pos: pos})
					}
				}
			}
		}
	}
	return s, bad
}

// Suppressions counts the //nslint:disable directives in pkgs: the
// ledger a tree can cap so that suppressions only ever go away.
func Suppressions(pkgs []*Package) int {
	n := 0
	for _, pkg := range pkgs {
		sup, bad := collectSuppressions(pkg)
		n += len(bad)
		for _, lines := range sup.byFileLine {
			n += len(lines)
		}
	}
	return n
}

func (s *suppressions) covers(d Diagnostic) bool {
	lines := s.byFileLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	covered := false
	for _, l := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, e := range lines[l] {
			if e.name == d.Analyzer || e.name == "*" {
				// Mark every matching entry, not just the first: two
				// directives both absorbing the finding are both earning
				// their keep, neither is stale.
				e.used = true
				covered = true
			}
		}
	}
	return covered
}

// pathBase returns the last segment of an import path: the package-level
// scoping unit analyzers match against, so fixture packages under
// testdata can stand in for the real tree.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// inPackages reports whether the pass's package is one of names, matched
// by import-path base.
func (p *Pass) inPackages(names ...string) bool {
	base := pathBase(p.Pkg.Path)
	for _, n := range names {
		if base == n {
			return true
		}
	}
	return false
}

// eachFunc walks every function declaration (methods included) in the
// package, skipping test files.
func (p *Pass) eachFunc(fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Pkg.Files {
		name := p.Pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// eachFile visits every non-test file.
func (p *Pass) eachFile(fn func(f *ast.File)) {
	for _, f := range p.Pkg.Files {
		name := p.Pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		fn(f)
	}
}
