package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// Morsel segments. The aggregate and the hash join cut their input into
// fixed-size morsels of live-row ordinals and read each morsel as a few
// segments: live rows [lo, hi) of one batch of a batch-backed relation, or
// rows [lo, hi) of a row-backed one, whose physical index is the ordinal. A
// segment compiles the operator's key and argument expressions once into
// readers (expr.Readers for a batch, Eval for rows), so the aggregate has one
// loop over both input forms; the join, which gathers its output from
// vectors, transposes a row-backed side first (DESIGN.md "Executor"). A read
// yields exactly the Value Eval gives on the materialized row, so morsel
// boundaries, group order and emission order, and with them the output, are
// the same for both forms at every worker width.
type segment struct {
	b      *value.Batch
	rows   []value.Row
	lo, hi int
}

// phys is the physical row index of the segment's k-th live row.
func (s segment) phys(k int) int {
	if s.b != nil {
		return s.b.RowIndex(k)
	}
	return k
}

// readers compiles es over the segment: one reader of physical row indices
// per expression, nil for a nil expression (COUNT(*)).
func (s segment) readers(es []expr.Expr) []func(int) (value.Value, error) {
	if s.b != nil {
		return expr.Readers(es, s.b)
	}
	rows := s.rows
	rs := make([]func(int) (value.Value, error), len(es))
	for j, e := range es {
		if e != nil {
			rs[j] = func(i int) (value.Value, error) { return e.Eval(rows[i]) }
		}
	}
	return rs
}

// segments covers live ordinals [lo, hi) of r in stream order: one segment
// of a row-backed relation, else one per batch the range touches. offs is
// r.offsets(). Scan batches hold at most one morsel's worth of rows, so a
// morsel rarely spans more than two.
func (r Rel) segments(offs []int, lo, hi int) []segment {
	if r.Batches == nil {
		return []segment{{rows: r.Rows, lo: lo, hi: hi}}
	}
	bs := r.Batches
	i := batchIndexOf(offs, lo)
	segs := make([]segment, 0, 2)
	for ; i < len(bs) && offs[i] < hi; i++ {
		s, e := 0, bs[i].Len()
		if lo > offs[i] {
			s = lo - offs[i]
		}
		if hi < offs[i+1] {
			e = hi - offs[i]
		}
		segs = append(segs, segment{b: bs[i], lo: s, hi: e})
	}
	return segs
}

// offsets returns prefix sums of the batches' live-row counts: offs[i] is
// the live ordinal of batch i's first row, the last entry the total. A
// row-backed relation gets [0], which segments ignores.
func (r Rel) offsets() []int {
	offs := make([]int, len(r.Batches)+1)
	for i, b := range r.Batches {
		offs[i+1] = offs[i] + b.Len()
	}
	return offs
}

// batchIndexOf binary-searches offs for the batch holding global live
// ordinal i (a hand-rolled sort.Search: the closure sort.Search takes would
// allocate per call).
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
