package colstore

import (
	"hana/internal/value"
)

// Vectorized batch readers (ROADMAP item 2): decode a row range of a column
// into a value.Vec without boxing individual values. Compressed forms are
// preserved wherever possible — VARCHAR ranges that stay inside the main
// fragment are handed up as dictionary codes against the sorted main
// dictionary, so predicate kernels can compare codes instead of strings and
// late materialization can defer string decoding to projection time.
//
// Sharing rules (all reads happen under the owning table's read lock):
//   - delta payload slices (deltaInts/deltaFloats/deltaCodes) are append-only;
//     a capped subslice of the visible prefix never mutates afterwards, so it
//     may be shared with the batch.
//   - dictionaries (mainDict/deltaDict) are replaced wholesale by Merge, never
//     mutated in place, so they may be shared.
//   - null bitmaps CAN mutate in a shared word (delta appends set bits next to
//     visible rows), so validity is always copied into a fresh, re-based
//     bitmap while the lock is held.

// FillVec decodes rows [lo, hi) into v. v is overwritten. The range may
// straddle the main/delta boundary (per-column boundaries differ after a
// single-column rebuild), in which case VARCHAR falls back to materialized
// strings because the two fragments use different dictionaries.
func (c *Column) FillVec(lo, hi int, v *value.Vec) {
	*v = value.Vec{Kind: c.Kind}
	c.fillNulls(lo, hi, v)
	switch c.Kind {
	case value.KindVarchar:
		c.fillVarchar(lo, hi, v)
	case value.KindDouble:
		c.fillDouble(lo, hi, v)
	default:
		c.fillInts(lo, hi, v)
	}
}

// fillNulls copies validity for [lo, hi) into a fresh bitmap re-based at lo,
// a word at a time: a range without NULLs allocates nothing.
func (c *Column) fillNulls(lo, hi int, v *value.Vec) {
	n := hi - lo
	if mainHi := min(hi, c.mainN); lo < mainHi {
		orBits(v, n, 0, c.mainNulls, lo, mainHi)
	}
	if deltaLo := max(lo, c.mainN); deltaLo < hi {
		orBits(v, n, deltaLo-lo, c.deltaNulls, deltaLo-c.mainN, hi-c.mainN)
	}
}

// orBits sets the bits of v's n-row bitmap from position at on that are set
// in src's [from, to), allocating the bitmap at the first set bit. Bits
// past src's length read as unset, as bitmap.get has them.
func orBits(v *value.Vec, n, at int, src *bitmap, from, to int) {
	to = min(to, src.n, 64*len(src.words))
	for i := from; i < to; {
		take := min(64-(i&63), to-i)
		w := src.words[i>>6] >> (uint(i) & 63)
		if take < 64 {
			w &= 1<<uint(take) - 1
		}
		if w != 0 {
			v.EnsureNulls(n)
			d := at + i - from
			off := uint(d) & 63
			v.Nulls[d>>6] |= w << off
			if off != 0 && take > 64-int(off) {
				v.Nulls[d>>6+1] |= w >> (64 - off)
			}
		}
		i += take
	}
}

func (c *Column) fillInts(lo, hi int, v *value.Vec) {
	n := hi - lo
	if lo >= c.mainN { // pure delta: share the append-only prefix
		d := lo - c.mainN
		v.Ints = c.deltaInts[d : d+n : d+n]
		return
	}
	ints := make([]int64, n)
	mainHi := hi
	if mainHi > c.mainN {
		mainHi = c.mainN
	}
	for i := lo; i < mainHi; i++ {
		ints[i-lo] = c.mainBase + int64(c.mainPacked.get(i))
	}
	for i := mainHi; i < hi; i++ {
		ints[i-lo] = c.deltaInts[i-c.mainN]
	}
	v.Ints = ints
}

func (c *Column) fillDouble(lo, hi int, v *value.Vec) {
	n := hi - lo
	switch {
	case lo >= c.mainN: // pure delta
		d := lo - c.mainN
		v.Floats = c.deltaFloats[d : d+n : d+n]
	case hi <= c.mainN && c.mainFDict == nil: // raw main: immutable between merges
		v.Floats = c.mainFloats[lo:hi:hi]
	default:
		fs := make([]float64, n)
		mainHi := hi
		if mainHi > c.mainN {
			mainHi = c.mainN
		}
		for i := lo; i < mainHi; i++ {
			if c.mainFDict != nil {
				fs[i-lo] = c.mainFDict[c.mainPacked.get(i)]
			} else {
				fs[i-lo] = c.mainFloats[i]
			}
		}
		for i := mainHi; i < hi; i++ {
			fs[i-lo] = c.deltaFloats[i-c.mainN]
		}
		v.Floats = fs
	}
}

func (c *Column) fillVarchar(lo, hi int, v *value.Vec) {
	n := hi - lo
	switch {
	case hi <= c.mainN: // pure main: fresh codes against the sorted dictionary
		codes := make([]uint32, n)
		for i := lo; i < hi; i++ {
			codes[i-lo] = uint32(c.mainPacked.get(i))
		}
		v.Codes, v.Dict, v.Sorted = codes, c.mainDict, true
	case lo >= c.mainN: // pure delta: share codes; dict is insertion-ordered
		d := lo - c.mainN
		v.Codes, v.Dict = c.deltaCodes[d:d+n:d+n], c.deltaDict
	default: // straddle: the fragments use different dictionaries; materialize
		strs := make([]string, n)
		for i := lo; i < c.mainN; i++ {
			if !c.mainNulls.get(i) {
				strs[i-lo] = c.mainDict[c.mainPacked.get(i)]
			}
		}
		for i := c.mainN; i < hi; i++ {
			if !c.deltaNulls.get(i - c.mainN) {
				strs[i-lo] = c.deltaDict[c.deltaCodes[i-c.mainN]]
			}
		}
		v.Strs = strs
	}
}

// ReadBatch decodes rows [lo, hi) of the table into a columnar batch under
// the read lock. needed, when non-nil, marks the column ordinals the query
// references; unneeded columns become pruned vectors that decode nothing and
// read as NULL (late materialization / column pruning). The returned batch's
// Schema is the table schema; callers that scan through a qualified schema
// overwrite it.
func (t *Table) ReadBatch(lo, hi int, needed []bool) *value.Batch {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return &value.Batch{Schema: t.schema, N: 0}
	}
	if n := t.cols[0].Len(); hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	b := &value.Batch{Schema: t.schema, Cols: make([]value.Vec, len(t.cols)), N: hi - lo}
	for i, c := range t.cols {
		if needed != nil && (i >= len(needed) || !needed[i]) {
			b.Cols[i] = value.Vec{Kind: c.Kind, Pruned: true}
			continue
		}
		c.FillVec(lo, hi, &b.Cols[i])
	}
	return b
}
