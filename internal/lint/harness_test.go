package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness mirrors analysistest: fixture sources mark each
// expected finding with a trailing comment of the form
//
//	expr // want `message substring` `another substring`
//
// and the test fails on any unmatched expectation or unexpected finding.
// Substrings are backquoted because diagnostic messages themselves quote
// expressions with double quotes.
var wantRe = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func loadFixture(t *testing.T, rel string) []*Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	pkgs, err := Load(dir, ".")
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("fixture %s type error: %v", rel, e)
		}
	}
	return pkgs
}

func runFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkgs := loadFixture(t, rel)
	diags := Run(pkgs, []*Analyzer{a})
	checkWants(t, filepath.Join("testdata", "src", rel), diags)
}

func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	var wants []*expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path, err := filepath.Abs(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, tail, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRe.FindAllStringSubmatch(tail, -1)
			if len(ms) == 0 {
				t.Errorf("%s:%d: malformed want comment (need backquoted substrings)", path, i+1)
			}
			for _, m := range ms {
				wants = append(wants, &expectation{file: path, line: i + 1, substr: m[1]})
			}
		}
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, Determinism, "determinism/vcodec") }

// The identical code outside the deterministic package set must be clean.
func TestDeterminismOutOfScope(t *testing.T) { runFixture(t, Determinism, "determinism/util") }

func TestArenaPairFixture(t *testing.T) { runFixture(t, ArenaPair, "arenapair/media") }

func TestArenaPairBorrowFixture(t *testing.T) { runFixture(t, ArenaPair, "arenapair/borrow") }

// Every borrowed slab in the transfer fixture is discharged; the
// analyzer must not flag the ownership hand-offs.
func TestArenaPairTransferFixture(t *testing.T) { runFixture(t, ArenaPair, "arenapair/transfer") }

func TestConnIOFixture(t *testing.T) { runFixture(t, ConnIO, "connio/media") }

// sched is in scope: conn I/O under a scheduler lock is reported
// whether or not a deadline is armed beside it.
func TestConnIOSchedFixture(t *testing.T) { runFixture(t, ConnIO, "connio/sched") }

func TestConnIOOutOfScope(t *testing.T) { runFixture(t, ConnIO, "connio/other") }

// Package wire is where conn I/O is allowed: raw reads and writes there,
// through its own framing helpers or directly, are clean.
func TestConnIOInsideWire(t *testing.T) { runFixture(t, ConnIO, "connio/wire") }

func TestLockHoldFixture(t *testing.T) { runFixture(t, LockHold, "lockhold/sched") }

func TestSeqSafeFixture(t *testing.T) { runFixture(t, SeqSafe, "seqsafe/media") }

func TestErrWrapFixture(t *testing.T) { runFixture(t, ErrWrap, "errwrap/wire") }

func TestErrWrapOutOfScope(t *testing.T) { runFixture(t, ErrWrap, "errwrap/other") }

func TestOwnershipFixture(t *testing.T) { runFixture(t, Ownership, "ownership/media") }

// Every slab in the clean fixture is released exactly once — across
// callees, channel pipelines, and spawned goroutines — so the analyzer
// must stay silent.
func TestOwnershipCleanFixture(t *testing.T) { runFixture(t, Ownership, "ownership/clean") }

// Deadline-bearing shed queues transfer payload ownership with the
// entry: dropping an expired entry without releasing leaks the slab,
// and a shed helper's release must not be repeated.
func TestOwnershipShedQueueFixture(t *testing.T) { runFixture(t, Ownership, "ownership/shedq") }

// The clean shed queue discharges every payload exactly once: shed at
// admission, released at the expired-drop point, or forwarded through
// the EDF stage to a releasing serve loop.
func TestOwnershipShedQueueCleanFixture(t *testing.T) {
	runFixture(t, Ownership, "ownership/shedqclean")
}

// The delivery tier's cache-entry lifecycle: borrow once, fanout-write
// to every subscriber, release exactly once. The flagging fixture
// breaks each rule (use after release, cross-function double free,
// channel publish with a dropping consumer).
func TestOwnershipFanoutFixture(t *testing.T) { runFixture(t, Ownership, "ownership/fanout") }

// The clean mirror: inline release after the last delivery, shed-point
// release on admission decline, and a channel consumer that discharges
// every published payload.
func TestOwnershipFanoutCleanFixture(t *testing.T) {
	runFixture(t, Ownership, "ownership/fanoutclean")
}

func TestLockOrderFixture(t *testing.T) { runFixture(t, LockOrder, "lockorder/media") }

// Documented edges, Locked-suffix callees, and sequential acquisitions
// must not be flagged.
func TestLockOrderCleanFixture(t *testing.T) { runFixture(t, LockOrder, "lockorder/sched") }

func TestGoLeakFixture(t *testing.T) { runFixture(t, GoLeak, "goleak/media") }

// WaitGroup balance (field, local, parameter-passed) and closed-channel
// waits all count as join evidence.
func TestGoLeakCleanFixture(t *testing.T) { runFixture(t, GoLeak, "goleak/wire") }

func TestRefBalanceFixture(t *testing.T) { runFixture(t, RefBalance, "refbalance/edge") }

// Release-on-all-paths, defer, return, store, send, goroutine handoff,
// and transfer to an always-releasing callee all discharge.
func TestRefBalanceCleanFixture(t *testing.T) { runFixture(t, RefBalance, "refbalance/clean") }

func TestBudgetFlowFixture(t *testing.T) { runFixture(t, BudgetFlow, "budgetflow/edge") }

// Wire budgets, chunk budget fields, config backstops, and bounded
// waits must not be flagged.
func TestBudgetFlowCleanFixture(t *testing.T) { runFixture(t, BudgetFlow, "budgetflow/media") }

// TestStaleSuppression pins stale-directive reporting: a justified
// directive that suppresses nothing is reported.
func TestStaleSuppression(t *testing.T) {
	runFixture(t, Determinism, "suppress/stale")
	pkgs := loadFixture(t, "suppress/stale")
	// A directive naming an analyzer outside the run set is not judged:
	// that analyzer never had the chance to produce the suppressed
	// finding.
	if diags := Run(pkgs, []*Analyzer{ErrWrap}); len(diags) != 0 {
		t.Fatalf("out-of-run-set directive reported as stale: %v", diags)
	}
}

// TestTreeCleanUnderNewAnalyzers pins the shipping tree (internal, cmd,
// examples, root) clean under the path-sensitive round — refbalance and
// budgetflow — including the stale-suppression check over their
// directives.
func TestTreeCleanUnderNewAnalyzers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{RefBalance, BudgetFlow})
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestSuppression pins the //nslint:disable contract: a justified
// directive swallows its finding, an unjustified one is itself reported
// and suppresses nothing.
func TestSuppression(t *testing.T) {
	pkgs := loadFixture(t, "suppress/vcodec")
	diags := Run(pkgs, []*Analyzer{Determinism})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %v", len(diags), diags)
	}
	var sawMissingReason, sawUnsuppressed bool
	for _, d := range diags {
		switch d.Analyzer {
		case "nslint":
			if strings.Contains(d.Message, "suppression needs a justification") {
				sawMissingReason = true
			}
		case "determinism":
			if strings.Contains(d.Message, "time.Now") {
				sawUnsuppressed = true
			}
		}
	}
	if !sawMissingReason {
		t.Errorf("missing-reason directive not reported: %v", diags)
	}
	if !sawUnsuppressed {
		t.Errorf("unjustified directive must not suppress the finding: %v", diags)
	}
	// Both directives count toward the ledger nslint caps, the
	// unjustified one included; prose quoting the directive in the
	// package comment does not.
	if n := Suppressions(pkgs); n != 2 {
		t.Errorf("Suppressions = %d, want 2", n)
	}
}

func TestByName(t *testing.T) {
	as, err := ByName("connio, errwrap")
	if err != nil || len(as) != 2 || as[0] != ConnIO || as[1] != ErrWrap {
		t.Fatalf("ByName: %v, %v", as, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All) {
		t.Fatalf("ByName(\"\"): %v, %v", all, err)
	}
}
