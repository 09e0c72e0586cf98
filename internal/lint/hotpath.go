package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// Hot-path derivation: the hot-function set is everything reachable from
// the HotRoots seed list (plus //hana:hotpath opt-ins) through calls the
// syntactic resolver can type. Interface dispatch contributes no edges —
// that is why the root list names each Expr.Eval implementation
// explicitly — so the closure under-approximates rather than guesses. The
// -escapes baseline gates on this set.

// hotDirective marks a function as a hot root from its doc comment.
const hotDirective = "//hana:hotpath"

// hasHotDirective reports whether the declaration's doc comment carries a
// //hana:hotpath marker (bare or followed by a rationale).
func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == hotDirective || strings.HasPrefix(c.Text, hotDirective+" ") {
			return true
		}
	}
	return false
}

// HotFuncs returns every hot function keyed by FuncRef.key(), mapped to
// the call chain that makes it hot ("" for roots). The set is computed
// once per Program and is deterministic: roots are visited in sorted
// order and call edges in source order.
func (pr *Program) HotFuncs() map[string]string {
	if pr.hotFuncs != nil {
		return pr.hotFuncs
	}
	hot := map[string]string{}

	var roots []string
	for _, r := range HotRoots {
		if pr.funcs[r] != nil {
			roots = append(roots, r)
		}
	}
	for _, info := range pr.FuncsSorted() {
		if hasHotDirective(info.Decl) {
			roots = append(roots, info.Ref.key())
		}
	}
	sort.Strings(roots)

	var queue []string
	for _, r := range roots {
		if _, ok := hot[r]; !ok {
			hot[r] = ""
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		info := pr.funcs[key]
		if info == nil {
			continue
		}
		chain := hot[key]
		short := info.Ref.Short()
		for _, callee := range pr.calleesOf(info) {
			ck := callee.key()
			if _, seen := hot[ck]; seen {
				continue
			}
			via := short
			if chain != "" {
				via = chain + " → " + short
			}
			hot[ck] = via
			queue = append(queue, ck)
		}
	}
	pr.hotFuncs = hot
	return hot
}

// UnmatchedHotRoots returns the HotRoots entries that resolve to no loaded
// function — the audit signal `hanalint -hot` prints when operators are
// renamed out from under the seed list.
func (pr *Program) UnmatchedHotRoots() []string {
	var out []string
	for _, r := range HotRoots {
		if pr.funcs[r] == nil {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// calleesOf resolves every call in the function body (closures included)
// in source order, deduplicated.
func (pr *Program) calleesOf(info *FuncInfo) []FuncRef {
	if info.Decl.Body == nil {
		return nil
	}
	env := pr.Env(info)
	var refs []FuncRef
	seen := map[string]bool{}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if ref, ok := env.resolveCall(call); ok && !seen[ref.key()] {
			seen[ref.key()] = true
			refs = append(refs, ref)
		}
		return true
	})
	return refs
}
