package lint

import (
	"strings"
)

// goLeakPkgs are the packages whose goroutines must be joinable: the
// serving path and its direct infrastructure. Binaries under cmd/ and
// examples/ own process-lifetime goroutines and are out of scope.
var goLeakPkgs = []string{"media", "wire", "sched", "enhance", "par", "driver", "faults", "edge", "flight"}

// GoLeak requires statically-visible join evidence for every spawned
// goroutine: the Server accept loop, the EnhancerPool heartbeat, and
// the RemoteEnhancer reader must all be provably collectable at Close,
// or a reconnect churn test turns into a goroutine leak. Evidence is
// any of:
//
//   - WaitGroup balance: some function Adds on the same WaitGroup
//     (matched by "Type.field" across functions, or by object identity
//     for locals captured by closures) and the spawned body Dones on it,
//     directly or through a callee — `pc.wg.Add(1)` before the
//     `go func()` of dispatchAnchors with `defer pc.wg.Done()` inside;
//   - a closed-channel wait: the spawned body receives from or ranges
//     over a channel that some statement in the program closes —
//     `for f := range tasks` joined by `close(pool)`, or a
//     `select { case <-p.closed: }` paired with `close(p.closed)`;
//   - a justified bounded-lifetime annotation:
//     //nslint:disable goleak -- reason, on or above the go statement.
//
// Both forms follow the call graph: the Done or the channel wait may
// live in a callee of the spawned function, and parameter-passed
// WaitGroups and channels are mapped through the spawn's arguments.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "require join evidence for every spawned goroutine: WaitGroup Add/Done balance, " +
		"a wait on a channel the program closes, or an annotated bounded lifetime",
	RunProgram: runGoLeak,
}

func runGoLeak(pp *ProgramPass) {
	prog := pp.Prog
	// Field-keyed WaitGroup Adds are program-wide evidence: the Add and
	// the spawn often live in different methods of the same type.
	fieldAdds := map[string]bool{}
	for _, n := range prog.Nodes {
		for key := range prog.summary(n).addsOn {
			if !strings.HasPrefix(key, "@") {
				fieldAdds[key] = true
			}
		}
	}
	for _, n := range prog.Nodes {
		if !n.inPackages(goLeakPkgs...) {
			continue
		}
		for _, sp := range n.Spawns {
			if hasJoinEvidence(prog, n, sp, fieldAdds) {
				continue
			}
			pp.Reportf(n.Pkg, sp.Go.Pos(),
				"goroutine spawned here has no statically-visible join evidence: balance a WaitGroup Add/Done "+
					"across the spawn, wait on a channel the program closes, or justify a bounded lifetime "+
					"with //nslint:disable goleak -- reason")
		}
	}
}

// hasJoinEvidence checks one spawn site. Every resolved target must
// carry evidence (static spawns resolve to exactly one).
func hasJoinEvidence(prog *Program, n *FuncNode, sp *SpawnSite, fieldAdds map[string]bool) bool {
	pass := n.pass(prog)
	localAdds := map[string]bool{}
	for anc := n; anc != nil; anc = anc.Parent {
		for key := range prog.summary(anc).addsOn {
			localAdds[key] = true
		}
	}
	addEvidence := func(key string) bool {
		if strings.HasPrefix(key, "@") {
			return localAdds[key]
		}
		return fieldAdds[key]
	}

	var targets []*FuncNode
	if sp.Lit != nil {
		targets = []*FuncNode{sp.Lit}
	} else {
		targets = sp.Callees
	}
	if len(targets) == 0 {
		return false
	}
	for _, t := range targets {
		ts := prog.summary(t)
		ok := false
		for key := range ts.donesOn {
			if addEvidence(key) {
				ok = true
				break
			}
		}
		if !ok {
			for j := range ts.wgDoneParams {
				if j >= len(sp.Go.Call.Args) {
					continue
				}
				if key, has := wgKey(pass, stripAddr(sp.Go.Call.Args[j])); has && addEvidence(key) {
					ok = true
					break
				}
			}
		}
		if !ok {
			for key := range ts.waitsOnChans {
				if prog.closedChans[key] {
					ok = true
					break
				}
			}
		}
		if !ok {
			for j := range ts.waitsOnParams {
				if j >= len(sp.Go.Call.Args) {
					continue
				}
				if key, has := chanKey(pass, sp.Go.Call.Args[j]); has && prog.closedChans[key] {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
