package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// lockOrderPkgs are the packages whose mutexes participate in the
// repo-wide acquisition graph: the serving-path state machines that can
// deadlock against each other.
var lockOrderPkgs = []string{"media", "sched", "wire", "flight"}

// LockOrder lifts lockhold's per-function view into a repo-wide
// lock-acquisition graph. Where lockhold sees only lexical nesting,
// LockOrder follows calls: holding mutex A while calling a function
// that (transitively, interface dispatch included) acquires mutex B
// creates the edge A -> B. Every edge must appear in the documented
// order (DESIGN.md "Invariants", extended in source with
// //nslint:lock-order A.mu -> B.mu comments); undocumented edges are
// reported with the witness call chain, re-acquisitions of a held mutex
// are flagged as self-deadlocks, and cycles in the combined graph —
// documented plus observed — are reported even when each edge looks
// locally justified.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "build the repo-wide lock-acquisition graph across calls and interface dispatch; " +
		"flag undocumented edges with witness chains, self-deadlocks, and cycles",
	RunProgram: runLockOrder,
}

// lockOrderDirective opens the in-source documentation directive, e.g.
// //nslint:lock-order RemoteEnhancer.mu -> Mux.mu
var lockOrderDirective = "nslint:lock-order "

// lockEdge is one observed may-happen acquisition order: to is acquired
// (possibly deep in callee) while from is held at pos in node.
type lockEdge struct {
	from, to string
	node     *FuncNode
	pos      token.Pos
	callee   *FuncNode // nil for a lexical (same-function) nesting
}

func runLockOrder(pp *ProgramPass) {
	prog := pp.Prog
	documented := documentedLockOrder(prog)

	var edges []lockEdge
	reportedEdge := map[string]bool{}
	for _, n := range prog.Nodes {
		if !n.inPackages(lockOrderPkgs...) {
			continue
		}
		s := prog.summary(n)
		// Lexical nestings feed the cycle graph only: lockhold already
		// reports undocumented same-function nesting.
		for _, a := range s.acquires {
			if !isFieldLockKey(a.key) {
				continue
			}
			for _, h := range a.held {
				if isFieldLockKey(h) && h != a.key {
					edges = append(edges, lockEdge{from: h, to: a.key, node: n, pos: a.pos})
				}
			}
		}
		// Interprocedural edges: a call under a held mutex reaching a
		// deeper acquisition.
		for _, lc := range s.lockCalls {
			if len(lc.held) == 0 {
				continue
			}
			for _, callee := range lc.site.Callees {
				cs := prog.summary(callee)
				for _, key := range sortedKeys(cs.mayAcquire) {
					if !isFieldLockKey(key) {
						continue
					}
					for _, h := range lc.held {
						if !isFieldLockKey(h) {
							continue
						}
						id := h + "->" + key
						if reportedEdge[id] {
							continue
						}
						if h == key {
							reportedEdge[id] = true
							pp.Reportf(n.Pkg, lc.site.Call.Pos(),
								"calling %s while holding %s can re-acquire %s (%s): self-deadlock on a non-reentrant mutex",
								callee.label(), h, h, witnessChain(prog, callee, key))
							continue
						}
						edges = append(edges, lockEdge{from: h, to: key, node: n, pos: lc.site.Call.Pos(), callee: callee})
						if documented[id] {
							continue
						}
						reportedEdge[id] = true
						contradiction := ""
						if documented[key+"->"+h] {
							contradiction = fmt.Sprintf("; the documented order is the reverse (%s before %s)", key, h)
						}
						pp.Reportf(n.Pkg, lc.site.Call.Pos(),
							"acquiring %s while holding %s via %s is outside the documented lock order%s (see DESIGN.md Invariants); witness: %s",
							key, h, callee.label(), contradiction, witnessChain(prog, callee, key))
					}
				}
			}
		}
	}

	reportLockCycles(pp, documented, edges, reportedEdge)
}

// isFieldLockKey keeps "Type.field" mutex keys and drops bare locals,
// which carry no cross-function identity.
func isFieldLockKey(k string) bool {
	return !strings.HasPrefix(k, ".")
}

// documentedLockOrder collects the //nslint:lock-order directives found
// anywhere in the loaded sources: the documented lock hierarchy
// (DESIGN.md "Invariants"), each edge declared beside the code that
// takes it.
func documentedLockOrder(prog *Program) map[string]bool {
	out := make(map[string]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, lockOrderDirective)
					if !ok {
						continue
					}
					parts := strings.SplitN(rest, "->", 2)
					if len(parts) != 2 {
						continue
					}
					from := strings.TrimSpace(parts[0])
					to := strings.TrimSpace(strings.SplitN(parts[1], "--", 2)[0])
					if from != "" && to != "" {
						out[from+"->"+to] = true
					}
				}
			}
		}
	}
	return out
}

// witnessChain renders how callee reaches the acquisition of key:
// "Server.handle calls Server.register at server.go:210, Server.register
// acquires Store.mu at server.go:173".
func witnessChain(prog *Program, callee *FuncNode, key string) string {
	var parts []string
	cur := callee
	for depth := 0; cur != nil && depth < 12; depth++ {
		via := prog.summary(cur).mayAcquire[key]
		if via == nil {
			break
		}
		if via.callee == nil {
			parts = append(parts, fmt.Sprintf("%s acquires %s at %s", cur.label(), key, posStr(via.pkg, via.pos)))
			cur = nil
			break
		}
		parts = append(parts, fmt.Sprintf("%s calls %s at %s", cur.label(), via.callee.label(), posStr(via.pkg, via.pos)))
		cur = via.callee
	}
	if len(parts) == 0 {
		return callee.label()
	}
	return strings.Join(parts, ", ")
}

// reportLockCycles finds cycles in the combined documented + observed
// graph. An edge already reported as undocumented is excluded — its
// report stands on its own — so a surviving cycle means every edge
// looked individually legitimate.
func reportLockCycles(pp *ProgramPass, documented map[string]bool, edges []lockEdge, alreadyReported map[string]bool) {
	adj := map[string]map[string]*lockEdge{}
	addEdge := func(from, to string, e *lockEdge) {
		if adj[from] == nil {
			adj[from] = map[string]*lockEdge{}
		}
		if adj[from][to] == nil {
			adj[from][to] = e
		}
	}
	for d := range documented {
		parts := strings.SplitN(d, "->", 2)
		if len(parts) == 2 {
			addEdge(parts[0], parts[1], nil)
		}
	}
	for i := range edges {
		e := &edges[i]
		if alreadyReported[e.from+"->"+e.to] {
			continue
		}
		addEdge(e.from, e.to, e)
	}

	var nodes []string
	for k := range adj {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)

	reported := map[string]bool{}
	const (
		unvisited = 0
		onStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var stack []string
	var dfs func(k string)
	dfs = func(k string) {
		state[k] = onStack
		stack = append(stack, k)
		var outs []string
		for to := range adj[k] {
			outs = append(outs, to)
		}
		sort.Strings(outs)
		for _, to := range outs {
			switch state[to] {
			case unvisited:
				dfs(to)
			case onStack:
				// Extract the cycle from the stack suffix starting at `to`.
				start := 0
				for i, v := range stack {
					if v == to {
						start = i
						break
					}
				}
				cycle := append(append([]string(nil), stack[start:]...), to)
				id := canonicalCycle(cycle)
				if reported[id] {
					continue
				}
				reported[id] = true
				// Anchor the report at the first observed edge in the cycle;
				// a cycle made purely of documented edges is a documentation
				// bug with no source position, skipped here.
				var at *lockEdge
				for i := 0; i+1 < len(cycle) && at == nil; i++ {
					at = adj[cycle[i]][cycle[i+1]]
				}
				if at == nil {
					continue
				}
				pp.Reportf(at.node.Pkg, at.pos,
					"lock-order cycle %s: two goroutines interleaving these acquisitions deadlock; break the cycle or restructure the documented order",
					strings.Join(cycle, " -> "))
			}
		}
		stack = stack[:len(stack)-1]
		state[k] = done
	}
	for _, k := range nodes {
		if state[k] == unvisited {
			dfs(k)
		}
	}
}

// canonicalCycle names a cycle independent of its starting point.
func canonicalCycle(cycle []string) string {
	body := cycle[:len(cycle)-1]
	min := 0
	for i := range body {
		if body[i] < body[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), body[min:]...), body[:min]...)
	return strings.Join(rot, "->")
}
