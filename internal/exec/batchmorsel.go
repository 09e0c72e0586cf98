package exec

import (
	"sort"

	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-native morsel execution (ROADMAP item 2). When an aggregation or
// join input arrives as columnar batches, the morsel workers read group
// keys and join keys straight from the vectors instead of materializing
// every input row first. The determinism contract is untouched: morsels
// still cover the concatenated live-row stream in fixed-size chunks, each
// value read boxes exactly what Batch.FillRow would have placed in a
// materialized row, and the per-morsel accumulation loops mirror their
// row-path counterparts statement for statement — so output stays
// byte-identical to the row path at every worker width. What changes is
// the cost: one boxed value per read instead of one boxed row per input
// row, and no intermediate row slab to allocate, clear and GC-scan.

// batchSeg addresses live rows [lo, hi) of one batch.
type batchSeg struct {
	b      *value.Batch
	lo, hi int
}

// batchOffsets returns prefix sums of live-row counts: offs[i] is the
// global live ordinal of batch i's first row, offs[len(bs)] the total.
func batchOffsets(bs []*value.Batch) []int {
	offs := make([]int, len(bs)+1)
	for i, b := range bs {
		offs[i+1] = offs[i] + b.Len()
	}
	return offs
}

// batchSegments covers global live ordinals [lo, hi) with per-batch
// segments in stream order. Scan batches hold at most one morsel's worth
// of rows, so a morsel rarely spans more than two segments.
func batchSegments(bs []*value.Batch, offs []int, lo, hi int) []batchSeg {
	i := batchIndexOf(offs, lo)
	segs := make([]batchSeg, 0, 2)
	for ; i < len(bs) && offs[i] < hi; i++ {
		s, e := 0, bs[i].Len()
		if lo > offs[i] {
			s = lo - offs[i]
		}
		if hi < offs[i+1] {
			e = hi - offs[i]
		}
		segs = append(segs, batchSeg{b: bs[i], lo: s, hi: e})
	}
	return segs
}

// batchIndexOf binary-searches offs for the batch holding global live
// ordinal i (a hand-rolled sort.Search: this runs once per emitted join
// row, and the closure sort.Search takes would allocate per call).
func batchIndexOf(offs []int, i int) int {
	lo, hi := 0, len(offs)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if offs[mid+1] > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// batchRowAt resolves a global live ordinal to its batch and physical row.
func batchRowAt(bs []*value.Batch, offs []int, i int) (*value.Batch, int) {
	bi := batchIndexOf(offs, i)
	b := bs[bi]
	return b, b.RowIndex(i - offs[bi])
}

// colOrdOf returns the vector ordinal an expression reads directly, or -1
// when it is not a bound column reference.
func colOrdOf(e expr.Expr) int {
	if c, ok := e.(*expr.ColRef); ok && c.Ord >= 0 {
		return c.Ord
	}
	return -1
}

// neededFillOrds returns the sorted column ordinals the expressions read,
// for filling only those slots of a scratch row. nil means "fill every
// column": an unbound reference or a node the walker does not recognize
// (e.g. a subquery) may hide reads, so the fallback stays conservative.
func neededFillOrds(exprs []expr.Expr) []int {
	seen := map[int]bool{}
	full := false
	visit := func(n expr.Expr) bool {
		switch c := n.(type) {
		case *expr.ColRef:
			if c.Ord < 0 {
				full = true
			} else {
				seen[c.Ord] = true
			}
		case *expr.Literal, *expr.Param, *expr.BinOp, *expr.UnOp, *expr.IsNull,
			*expr.Between, *expr.In, *expr.Like, *expr.Func, *expr.Cast, *expr.CaseWhen:
			// Known scalar nodes: Walk descends into their children.
		default:
			full = true
		}
		return true
	}
	for _, e := range exprs {
		expr.Walk(e, visit)
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

// fillScratch boxes the fill ordinals of physical row i into dst (every
// column when fill is nil), leaving other slots untouched — expressions
// evaluated against the scratch row only read the ordinals they reference.
func fillScratch(b *value.Batch, i int, dst value.Row, fill []int) {
	if fill == nil {
		b.FillRow(i, dst)
		return
	}
	for _, o := range fill {
		dst[o] = b.Cols[o].Value(i)
	}
}

// keyPlan classifies key expressions once per query: cols[i] >= 0 reads
// vector cols[i] directly; -1 falls back to Expr.Eval on a scratch row
// filled at the fill ordinals.
type keyPlan struct {
	cols    []int
	fill    []int
	needRow bool
}

func planKeys(keys []expr.Expr) keyPlan {
	p := keyPlan{cols: make([]int, len(keys))}
	general := make([]expr.Expr, 0, len(keys))
	for i, k := range keys {
		p.cols[i] = colOrdOf(k)
		if p.cols[i] < 0 {
			general = append(general, k)
		}
	}
	if len(general) > 0 {
		p.needRow = true
		p.fill = neededFillOrds(general)
	}
	return p
}

// batchAggPlan extends keyPlan to aggregate arguments: argCols[i] is -2 for
// COUNT(*) (no argument), -1 for a general expression, else the vector
// ordinal read directly.
type batchAggPlan struct {
	keyCols []int
	argCols []int
	fill    []int
	needRow bool
}

func planBatchAgg(groupBy []expr.Expr, aggs []AggSpec) batchAggPlan {
	p := batchAggPlan{
		keyCols: make([]int, len(groupBy)),
		argCols: make([]int, len(aggs)),
	}
	general := make([]expr.Expr, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		p.keyCols[i] = colOrdOf(g)
		if p.keyCols[i] < 0 {
			general = append(general, g)
		}
	}
	for i, a := range aggs {
		if a.Arg == nil {
			p.argCols[i] = -2
			continue
		}
		p.argCols[i] = colOrdOf(a.Arg)
		if p.argCols[i] < 0 {
			general = append(general, a.Arg)
		}
	}
	if len(general) > 0 {
		p.needRow = true
		p.fill = neededFillOrds(general)
	}
	return p
}

// aggregateBatchMorsel is aggregateMorsel over columnar segments (base is
// the input ordinal of the first segment's first row): the same
// scratch-key buffer, hash-chain lookup, first-seen ordering and
// accumulation sequence, with group keys and arguments boxed one value at
// a time from the vectors instead of via materialized rows. General
// expressions first try a compiled numeric kernel (expr.EvalKernel, whose
// results match Eval bit for bit); only expressions no kernel covers fall
// back to Eval on a scratch row filled at the referenced ordinals.
func aggregateBatchMorsel(segs []batchSeg, base int, groupBy []expr.Expr, aggs []AggSpec,
	keyOrds []int, plan batchAggPlan) (*AggPartial, error) {
	pt := NewAggPartial()
	key := make(value.Row, len(groupBy))
	var scratch value.Row
	keyKs := make([]func(int) (value.Value, error), len(groupBy))
	argKs := make([]func(int) (value.Value, error), len(aggs))
	for _, seg := range segs {
		b := seg.b
		// Kernels close over one batch's payload arrays: recompile per
		// segment (a few tree walks per ~4096 rows).
		segNeedRow := false
		for gi := range groupBy {
			keyKs[gi] = nil
			if plan.keyCols[gi] == -1 {
				if k, ok := expr.EvalKernel(groupBy[gi], b); ok {
					keyKs[gi] = k
				} else {
					segNeedRow = true
				}
			}
		}
		for ai := range aggs {
			argKs[ai] = nil
			if plan.argCols[ai] == -1 {
				if k, ok := expr.EvalKernel(aggs[ai].Arg, b); ok {
					argKs[ai] = k
				} else {
					segNeedRow = true
				}
			}
		}
		if segNeedRow && len(scratch) < len(b.Cols) {
			scratch = make(value.Row, len(b.Cols))
		}
		for k := seg.lo; k < seg.hi; k++ {
			i := b.RowIndex(k)
			if segNeedRow {
				fillScratch(b, i, scratch, plan.fill)
			}
			for gi, g := range groupBy {
				if ord := plan.keyCols[gi]; ord >= 0 && ord < len(b.Cols) {
					key[gi] = b.Cols[ord].Value(i)
					continue
				}
				var v value.Value
				var err error
				if keyKs[gi] != nil {
					v, err = keyKs[gi](i)
				} else {
					v, err = g.Eval(scratch)
				}
				if err != nil {
					return nil, err
				}
				key[gi] = v
			}
			hsh := key.Hash(keyOrds)
			var grp *AggGroup
			for _, g := range pt.table[hsh] {
				if key.EqualAt(g.Key, keyOrds, keyOrds) {
					grp = g
					break
				}
			}
			if grp == nil {
				grp = newAggGroup(key.Clone(), aggs, base)
				pt.insert(hsh, grp)
			}
			base++
			for ai, a := range aggs {
				ord := plan.argCols[ai]
				switch {
				case ord == -2: // COUNT(*)
					grp.States[ai].Count++
					grp.States[ai].HasVal = true
				case ord >= 0 && ord < len(b.Cols):
					grp.States[ai].Add(b.Cols[ord].Value(i))
				case argKs[ai] != nil:
					v, err := argKs[ai](i)
					if err != nil {
						return nil, err
					}
					grp.States[ai].Add(v)
				default:
					v, err := a.Arg.Eval(scratch)
					if err != nil {
						return nil, err
					}
					grp.States[ai].Add(v)
				}
			}
		}
	}
	return pt, nil
}
