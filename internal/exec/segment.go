package exec

import "hana/internal/value"

// Morsel segments. The aggregate and the hash join cut their input into
// fixed-size morsels of live-row ordinals and read each morsel as a few
// segments: live rows [lo, hi) of one batch of the relation. Rows enter as
// batches (RowRel), so each operator has one loop over one input form
// (DESIGN.md "Executor"). Batches yield exactly the Values Eval gives on the
// materialized rows, so morsel boundaries, group order and emission order,
// and with them the output, do not depend on how the batches were cut or on
// the worker width.
type segment struct {
	b      *value.Batch
	lo, hi int
}

// physRows returns the physical row indices of the segment's live rows, in
// order: the batch's selection, or [lo, hi) written into buf.
func (s segment) physRows(buf []int32) []int32 {
	if s.b.Sel != nil {
		return s.b.Sel[s.lo:s.hi]
	}
	buf = buf[:s.hi-s.lo]
	for k := range buf {
		buf[k] = int32(s.lo + k)
	}
	return buf
}

// segments covers live ordinals [lo, hi) of r in stream order: one segment
// per batch the range touches. offs is r.offsets(). Scan batches hold at most one morsel's worth of rows, so a
// morsel rarely spans more than two.
func (r Rel) segments(offs []int, lo, hi int) []segment {
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
// the live ordinal of batch i's first row, the last entry the total.
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
