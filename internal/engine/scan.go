package engine

import (
	"context"

	"hana/internal/diskstore"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/value"
)

// The table scan. Every reader of stored rows — SELECT leaves over any
// placement, UPDATE/DELETE target collection, aging, ANALYZE, the row
// counters — goes through planner.scan; only the raw storage dumps of
// savepoints and shard reseeding read a store directly, because they
// serialize storage rather than query it.

// tableScan is what planner.scan returns: the batches that still hold live
// rows, in (partition, row id) order, and what the scan saw on the way.
// batches[i] belongs to parts[i], and the row id of its live row k is
// bases[i] + batches[i].RowIndex(k). visible and pruned are indexed like
// the partition list the scan was given.
type tableScan struct {
	batches []*value.Batch
	parts   []*partition
	bases   []int
	visible []int  // rows visible to the reader, before the predicate
	pruned  []bool // partition skipped: its bounds miss the predicate
}

// scan reads parts — partitions of t, in t's order — under the planner's
// snapshot and returns the rows pred holds for (nil = all), still columnar.
// pred is bound to schema, t's schema under whatever qualification the
// caller uses; needed marks the column ordinals to decode (nil = all), the
// others read as NULL.
//
// Pruning comes from pred itself: its column-vs-literal conjuncts become
// value ranges, a partition whose bounds miss the range on the partitioning
// column is not read at all, and an extended-storage chunk whose zone maps
// miss any range is skipped. What remains is cut into morsels — row-id
// ranges of exec.DefaultMorselSize for the in-memory stores, one disk chunk
// (and the unflushed tail) for extended storage — that run on the engine's
// pool. A morsel decodes its batch from the store it finds, selects the rows
// visible to the reader and refines the selection with pred's kernels.
// Morsels are independent and reassembled in order, so the live-row stream
// is the same at any width.
func (p *planner) scan(t *storedTable, parts []*partition, schema *value.Schema, pred expr.Expr, needed []bool) (*tableScan, error) {
	out := &tableScan{visible: make([]int, len(parts)), pruned: make([]bool, len(parts))}
	partOrd := -1
	if t.meta.PartitionBy != "" {
		partOrd = t.meta.Schema.Find(t.meta.PartitionBy)
	}
	// Ranges serve partition bounds and zone maps; a plain in-memory table
	// has neither, and its key-set IN-lists are long.
	var ranges map[int]diskstore.Range
	if pred != nil && (partOrd >= 0 || t.firstCold() != nil) {
		ranges = extractRanges(expr.SplitConjuncts(pred))
	}

	type morsel struct {
		pi     int
		lo, hi int
	}
	nm := 0 // exact for the in-memory stores, a hint where cold chunks are short
	for _, part := range parts {
		nm += part.numRows()/exec.DefaultMorselSize + 1
	}
	ms := make([]morsel, 0, nm)
	for pi, part := range parts {
		if partOrd >= 0 && prunePartition(part, t, partOrd, ranges) {
			out.pruned[pi] = true
			continue
		}
		if part.ext != nil {
			for _, sp := range part.ext.Spans(ranges) {
				ms = append(ms, morsel{pi, int(sp.Lo), int(sp.Hi)})
			}
			continue
		}
		n := part.numRows()
		for lo := 0; lo < n; lo += exec.DefaultMorselSize {
			hi := lo + exec.DefaultMorselSize
			if hi > n {
				hi = n
			}
			ms = append(ms, morsel{pi, lo, hi})
		}
	}

	outs := make([]*value.Batch, len(ms))
	visible := make([]int, len(ms))
	workers, err := p.e.pool.Run(p.ctx, len(ms), p.width, func(_ context.Context, i int) error {
		m, part := ms[i], parts[ms[i].pi]
		var b *value.Batch
		switch {
		case part.hot != nil:
			b = part.hot.ReadBatch(m.lo, m.hi, needed)
		case part.row != nil:
			// Stored rows are replaced, never written in place, so the
			// references stay valid outside the store's lock.
			rows := make([]value.Row, 0, m.hi-m.lo)
			part.row.ScanRange(m.lo, m.hi, func(_ int, r value.Row) bool {
				rows = append(rows, r)
				return true
			})
			b = value.BatchFromRows(schema, rows, nil)
		default:
			var err error
			if b, err = part.ext.ReadBatch(int64(m.lo), int64(m.hi), needed); err != nil {
				return err
			}
		}
		b.Schema = schema
		b.Sel = part.vers.VisibleIn(m.lo, b.N, b.Sel, p.snapshot, p.tid)
		visible[i] = len(b.Sel)
		p.stats.NoteScanned(len(b.Sel))
		if err := expr.SelectBatch(pred, b); err != nil {
			return err
		}
		outs[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.stats.NoteDispatch(len(ms), workers)

	out.batches = make([]*value.Batch, 0, len(ms))
	for i, m := range ms {
		out.visible[m.pi] += visible[i]
		if outs[i].Len() > 0 {
			out.batches = append(out.batches, outs[i])
			out.parts = append(out.parts, parts[m.pi])
			out.bases = append(out.bases, m.lo)
		}
	}
	return out, nil
}

// prunePartition reports whether the partition's value range provably
// misses the pushed ranges on the partitioning column. The partition aging
// fills is never pruned: rows arrive there by their flag, whatever their key,
// so its bounds do not describe what it holds — its zone maps do.
func prunePartition(part *partition, t *storedTable, partOrd int, ranges map[int]diskstore.Range) bool {
	rg, ok := ranges[partOrd]
	if !ok || (t.meta.AgingColumn != "" && part == t.firstCold()) {
		return false
	}
	// Determine the partition's [lower, upper) window from the ordered
	// bound list.
	var lower, upper *value.Value
	var prev *value.Value
	for i := range t.meta.Partitions {
		pm := &t.meta.Partitions[i]
		if pm.Others {
			continue
		}
		b := pm.UpperBound
		if t.parts[i] == part {
			lower, upper = prev, &b
		}
		prev = &b
	}
	if part.meta.Others {
		lower, upper = prev, nil
	}
	if upper != nil && rg.Lo != nil && value.Compare(*upper, *rg.Lo) <= 0 {
		return true
	}
	if lower != nil && rg.Hi != nil && value.Compare(*lower, *rg.Hi) > 0 {
		return true
	}
	return false
}

// extractRanges derives value ranges per column ordinal from bound
// conjuncts (col CMP literal, BETWEEN, IN-lists): what partition bounds and
// zone maps are checked against.
func extractRanges(conjs []expr.Expr) map[int]diskstore.Range {
	ranges := map[int]diskstore.Range{}
	setLo := func(ord int, v value.Value) {
		r := ranges[ord]
		if r.Lo == nil || value.Compare(v, *r.Lo) > 0 {
			r.Lo = &v
		}
		ranges[ord] = r
	}
	setHi := func(ord int, v value.Value) {
		r := ranges[ord]
		if r.Hi == nil || value.Compare(v, *r.Hi) < 0 {
			r.Hi = &v
		}
		ranges[ord] = r
	}
	for _, c := range conjs {
		switch n := c.(type) {
		case *expr.BinOp:
			col, lit, op := colOpLiteral(n)
			if col == nil || col.Ord < 0 {
				continue
			}
			switch op {
			case expr.OpEq:
				setLo(col.Ord, lit)
				setHi(col.Ord, lit)
			case expr.OpGt, expr.OpGe:
				setLo(col.Ord, lit)
			case expr.OpLt, expr.OpLe:
				setHi(col.Ord, lit)
			}
		case *expr.Between:
			col, ok := n.E.(*expr.ColRef)
			if !ok || n.Negate || col.Ord < 0 {
				continue
			}
			if lo, ok := n.Lo.(*expr.Literal); ok {
				setLo(col.Ord, lo.Val)
			}
			if hi, ok := n.Hi.(*expr.Literal); ok {
				setHi(col.Ord, hi.Val)
			}
		case *expr.In:
			col := literalIn(n)
			if col == nil || col.Ord < 0 {
				continue
			}
			// The list's bounds under Compare, where NULL sorts first.
			set := n.Set()
			lo, hi := set.Min, set.Max
			if set.HasNull {
				lo = value.Null
			}
			setLo(col.Ord, lo)
			setHi(col.Ord, hi)
		}
	}
	return ranges
}

// literalIn returns the column of col IN (keys…), or nil when the node is
// negated, its list empty or not all literals — the IN-lists the planner
// ships as semijoin filters.
func literalIn(n *expr.In) *expr.ColRef {
	col, ok := n.E.(*expr.ColRef)
	if !ok || n.Negate || n.Set() == nil || n.Len() == 0 {
		return nil
	}
	return col
}
