package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder derives the global lock-acquisition graph from the
// interprocedural summaries — an edge A → B means some execution path
// acquires lock class B while holding A, either directly in one body or
// through a chain of resolved calls — and reports:
//
//   - cycles (including self-loops: re-acquiring a held lock class), the
//     classic distributed-commit deadlock shape this repo's 2PC and ESP
//     paths are exposed to;
//   - edges that violate the canonical ranking declared in lockrank.go
//     (a lock may only be acquired while holding locks of strictly lower
//     rank);
//   - edges touching a ranked lock whose other endpoint is unranked —
//     adding a lock class that nests with ranked ones requires extending
//     LockRanks.
//
// Edges between two unranked classes that form no cycle are not reported
// (they still appear in the DOT dump, `hanalint -lockgraph`): the fixture
// corpus shares this module's import-path namespace, so silence — not
// module scoping — is what keeps unrelated fixture locks out of the
// production ranking.
//
// Function bodies in _test.go files contribute no edges: test-only lock
// nesting (setup helpers poking at internals) would otherwise pollute the
// production ranking.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "global lock-acquisition graph: cycles and canonical-rank violations",
	Run:  runLockOrder,
}

// LockEdge is one edge of the global lock graph.
type LockEdge struct {
	From, To string
	Pos      token.Pos
	Via      string // call chain for indirect edges, "" for same-body edges
}

// LockGraph returns the global lock-order edge set, deduplicated by
// (From, To) keeping the earliest position, sorted by (From, To). Computed
// once per Program and cached.
func (pr *Program) LockGraph() []LockEdge {
	if pr.lockGraph != nil {
		return pr.lockGraph
	}
	best := map[[2]string]LockEdge{}
	add := func(e LockEdge) {
		k := [2]string{e.From, e.To}
		if old, ok := best[k]; !ok || e.Pos < old.Pos {
			best[k] = e
		}
	}
	for _, info := range pr.FuncsSorted() {
		if info.TestFile {
			continue
		}
		for _, d := range info.DirectEdges {
			add(LockEdge{From: d.From, To: d.To, Pos: d.Pos})
		}
		for _, hc := range info.HeldCalls {
			callee := pr.funcs[hc.Callee.key()]
			if callee != nil && callee.TestFile {
				continue
			}
			for lock, via := range pr.TransitiveLocks(hc.Callee) {
				chain := hc.Callee.Short()
				if via != "" {
					chain += " → " + via
				}
				for _, held := range hc.Held {
					add(LockEdge{From: held, To: lock, Pos: hc.Pos, Via: chain})
				}
			}
		}
	}
	keys := make([][2]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	edges := make([]LockEdge, 0, len(keys))
	for _, k := range keys {
		edges = append(edges, best[k])
	}
	pr.lockGraph = edges
	return edges
}

// lockCycleEdges returns, for the given edge set, the set of edge indices
// that participate in a cycle (members of a strongly connected component
// of size > 1, or self-loops), via Tarjan's algorithm over the class
// nodes.
func lockCycleEdges(edges []LockEdge) map[int]bool {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
		nodes[e.From], nodes[e.To] = true, true
	}
	names := sortedKeys(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range names {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	compSize := map[int]int{}
	for _, c := range comp {
		compSize[c]++
	}
	cyclic := map[int]bool{}
	for i, e := range edges {
		if e.From == e.To {
			cyclic[i] = true
			continue
		}
		if comp[e.From] == comp[e.To] && compSize[comp[e.From]] > 1 {
			cyclic[i] = true
		}
	}
	return cyclic
}

// cycleWitness renders one concrete cycle through the given edge for the
// diagnostic message, following lexicographically-smallest successors
// inside the same strongly connected component back to the edge's source.
func cycleWitness(edges []LockEdge, e LockEdge) string {
	adj := map[string][]string{}
	for _, x := range edges {
		adj[x.From] = append(adj[x.From], x.To)
	}
	for _, succ := range adj {
		sort.Strings(succ)
	}
	if e.From == e.To {
		return e.From + " → " + e.To
	}
	// BFS from e.To back to e.From gives a shortest return path.
	type hop struct {
		node string
		prev int
	}
	queue := []hop{{node: e.To, prev: -1}}
	seen := map[string]bool{e.To: true}
	for i := 0; i < len(queue); i++ {
		h := queue[i]
		if h.node == e.From {
			var rev []string
			for j := i; j != -1; j = queue[j].prev {
				rev = append(rev, queue[j].node)
			}
			parts := []string{e.From}
			for k := len(rev) - 1; k >= 0; k-- {
				parts = append(parts, rev[k])
			}
			return strings.Join(parts, " → ")
		}
		for _, w := range adj[h.node] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, hop{node: w, prev: i})
			}
		}
	}
	return e.From + " → " + e.To + " → … → " + e.From
}

func runLockOrder(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	// The graph is global; report each edge from the pass whose package
	// owns the edge's file so suppression and sorting stay position-local.
	own := map[string]bool{}
	for _, f := range pass.Pkg.Files {
		own[pass.Pkg.Fset.Position(f.Pos()).Filename] = true
	}
	edges := pass.Prog.LockGraph()
	cyclic := lockCycleEdges(edges)
	for i, e := range edges {
		if !own[pass.Pkg.Fset.Position(e.Pos).Filename] {
			continue
		}
		via := ""
		if e.Via != "" {
			via = " via " + e.Via
		}
		switch {
		case e.From == e.To:
			pass.Reportf(e.Pos, "lock %s acquired while already held%s: self-deadlock", e.From, via)
		case cyclic[i]:
			pass.Reportf(e.Pos, "lock-order cycle: %s acquired while holding %s%s (cycle %s)",
				e.To, e.From, via, cycleWitness(edges, e))
		default:
			rf, okF := LockRanks[e.From]
			rt, okT := LockRanks[e.To]
			switch {
			case okF && okT && rf >= rt:
				pass.Reportf(e.Pos, "lock-rank violation: %s (rank %d) acquired while holding %s (rank %d)%s; canonical order requires strictly increasing rank",
					e.To, rt, e.From, rf, via)
			case okF != okT:
				unranked := e.From
				if okF {
					unranked = e.To
				}
				pass.Reportf(e.Pos, "lock %s nests with ranked lock %s but has no entry in LockRanks (internal/lint/lockrank.go); rank it%s",
					unranked, rankedOf(e, okF), via)
			}
			// unranked ↔ unranked, acyclic: DOT-only.
		}
	}
}

func rankedOf(e LockEdge, fromRanked bool) string {
	if fromRanked {
		return e.From
	}
	return e.To
}

// LockGraphDOT renders the global lock-order graph in Graphviz DOT form,
// deterministically sorted, with indirect edges labeled by their call
// chain. Consumed by `hanalint -lockgraph` / `make lint-graph`.
func LockGraphDOT(pr *Program) string {
	edges := pr.LockGraph()
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("  rankdir=LR;\n")
	nodes := map[string]bool{}
	for _, e := range edges {
		nodes[e.From], nodes[e.To] = true, true
	}
	names := sortedKeys(nodes)
	for _, n := range names {
		if r, ok := LockRanks[n]; ok {
			fmt.Fprintf(&b, "  %q [label=%q];\n", n, fmt.Sprintf("%s (rank %d)", n, r))
		} else {
			fmt.Fprintf(&b, "  %q;\n", n)
		}
	}
	for _, e := range edges {
		if e.Via != "" {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From, e.To, e.Via)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
