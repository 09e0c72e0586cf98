package expr

import (
	"sort"

	"hana/internal/value"
)

// Readers compiles es for b into one reader each: a function of a physical
// row index that returns the Value Eval gives on that row of b. It is the
// one place that decides how a batch evaluates a scalar expression. A bound
// column reference reads its vector (a pruned column reads NULL); a numeric
// tree EvalKernel covers runs as that kernel; anything else runs Eval on one
// scratch row that all of this call's readers share, filled once per
// physical row and only at the ordinals FillOrds names. A nil expression
// (COUNT(*)) gets a nil reader. Sharing the scratch row, the readers of one
// call serve one goroutine.
func Readers(es []Expr, b *value.Batch) []func(int) (value.Value, error) {
	rs := make([]func(int) (value.Value, error), len(es))
	var rest []Expr
	for j, e := range es {
		if e == nil {
			continue
		}
		if c, ok := e.(*ColRef); ok {
			if v, ok := colVec(c, b); ok {
				rs[j] = func(i int) (value.Value, error) { return v.Value(i), nil }
				continue
			}
		}
		if k, ok := EvalKernel(e, b); ok {
			rs[j] = k
			continue
		}
		rest = append(rest, e)
	}
	if len(rest) == 0 {
		return rs
	}
	fill := FillOrds(rest)
	for len(fill) > 0 && fill[len(fill)-1] >= len(b.Cols) {
		fill = fill[:len(fill)-1] // out of range: Eval reports the reference
	}
	row := make(value.Row, len(b.Cols))
	at := -1
	load := func(i int) {
		if i == at {
			return
		}
		at = i
		if fill == nil {
			b.FillRow(i, row)
			return
		}
		for _, o := range fill {
			row[o] = b.Cols[o].Value(i)
		}
	}
	for j, e := range es {
		if rs[j] == nil && e != nil {
			rs[j] = func(i int) (value.Value, error) {
				load(i)
				return e.Eval(row)
			}
		}
	}
	return rs
}

// FillOrds returns the sorted column ordinals the expressions read, for
// filling only those slots of a scratch row. nil means "fill every column":
// an unbound reference or a node the walker does not recognize (e.g. a
// subquery) may hide reads, so the answer stays conservative.
func FillOrds(es []Expr) []int {
	seen := map[int]bool{}
	full := false
	visit := func(n Expr) bool {
		switch c := n.(type) {
		case *ColRef:
			if c.Ord < 0 {
				full = true
			} else {
				seen[c.Ord] = true
			}
		case *Literal, *Param, *BinOp, *UnOp, *IsNull,
			*Between, *In, *Like, *Func, *Cast, *CaseWhen:
			// Known scalar nodes: Walk descends into their children.
		default:
			full = true
		}
		return true
	}
	for _, e := range es {
		Walk(e, visit)
	}
	if full {
		return nil
	}
	ords := make([]int, 0, len(seen))
	for o := range seen {
		ords = append(ords, o)
	}
	sort.Ints(ords)
	return ords
}
