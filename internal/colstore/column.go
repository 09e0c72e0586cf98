package colstore

import (
	"fmt"
	"slices"
	"sort"

	"hana/internal/value"
)

// Column is one dictionary-encoded attribute vector with a compressed,
// read-optimized main fragment and an append-optimized delta fragment.
//
//   - VARCHAR values are dictionary encoded in both fragments. The main
//     dictionary is sorted (enabling range predicates on codes and the
//     ordered-dictionary histogram construction of the optimizer); the delta
//     dictionary is insertion-ordered.
//   - Integer-like kinds (BIGINT, DATE, TIMESTAMP, BOOLEAN) are stored as
//     int64 in the delta and frame-of-reference bit-packed in the main.
//   - DOUBLE is dictionary encoded in the main when the column is
//     low-cardinality, raw otherwise.
//
// Columns are not safe for concurrent mutation; the owning table
// synchronizes access.
type Column struct {
	Kind value.Kind

	// main fragment (immutable between merges)
	mainN      int
	mainPacked *packedVec // codes (dict kinds) or FOR-offsets (ints)
	mainBase   int64      // frame of reference for integer packing
	mainDict   []string   // sorted dictionary for VARCHAR
	mainFDict  []float64  // sorted dictionary for DOUBLE (nil = raw)
	mainFloats []float64  // raw doubles when dictionary doesn't pay off
	mainNulls  *bitmap

	// delta fragment (append-optimized)
	deltaInts   []int64
	deltaFloats []float64
	deltaCodes  []uint32 // codes into deltaDict for VARCHAR
	deltaDict   []string
	deltaIndex  map[string]uint32
	deltaNulls  *bitmap
}

// NewColumn creates an empty column of the given kind.
func NewColumn(kind value.Kind) *Column {
	c := &Column{Kind: kind, mainNulls: newBitmap(0), deltaNulls: newBitmap(0)}
	if kind == value.KindVarchar {
		c.deltaIndex = make(map[string]uint32)
	}
	return c
}

// Len returns the number of values (main + delta).
func (c *Column) Len() int { return c.mainN + c.deltaLen() }

func (c *Column) deltaLen() int {
	switch c.Kind {
	case value.KindVarchar:
		return len(c.deltaCodes)
	case value.KindDouble:
		return len(c.deltaFloats)
	default:
		return len(c.deltaInts)
	}
}

// Append adds a value to the delta fragment.
func (c *Column) Append(v value.Value) error {
	if v.IsNull() {
		c.deltaNulls.set(c.deltaLen())
		switch c.Kind {
		case value.KindVarchar:
			c.deltaCodes = append(c.deltaCodes, 0)
			if len(c.deltaDict) == 0 {
				c.deltaDict = append(c.deltaDict, "")
				c.deltaIndex[""] = 0
			}
		case value.KindDouble:
			c.deltaFloats = append(c.deltaFloats, 0)
		default:
			c.deltaInts = append(c.deltaInts, 0)
		}
		return nil
	}
	cv, err := value.Cast(v, c.Kind)
	if err != nil {
		return fmt.Errorf("column append: %w", err)
	}
	switch c.Kind {
	case value.KindVarchar:
		s := cv.S
		code, ok := c.deltaIndex[s]
		if !ok {
			code = uint32(len(c.deltaDict))
			c.deltaDict = append(c.deltaDict, s)
			c.deltaIndex[s] = code
		}
		c.deltaCodes = append(c.deltaCodes, code)
	case value.KindDouble:
		c.deltaFloats = append(c.deltaFloats, cv.F)
	default:
		c.deltaInts = append(c.deltaInts, cv.I)
	}
	// keep the null bitmap's logical length in sync
	c.deltaNulls.grow(c.deltaLen())
	return nil
}

// grow reserves delta room for n more values.
func (c *Column) grow(n int) {
	switch c.Kind {
	case value.KindVarchar:
		c.deltaCodes = slices.Grow(c.deltaCodes, n)
	case value.KindDouble:
		c.deltaFloats = slices.Grow(c.deltaFloats, n)
	default:
		c.deltaInts = slices.Grow(c.deltaInts, n)
	}
}

// Get returns the i-th value.
func (c *Column) Get(i int) value.Value {
	if i < c.mainN {
		return c.getMain(i)
	}
	return c.getDelta(i - c.mainN)
}

func (c *Column) getMain(i int) value.Value {
	if c.mainNulls.get(i) {
		return value.Null
	}
	switch c.Kind {
	case value.KindVarchar:
		return value.NewString(c.mainDict[c.mainPacked.get(i)])
	case value.KindDouble:
		if c.mainFDict != nil {
			return value.NewDouble(c.mainFDict[c.mainPacked.get(i)])
		}
		return value.NewDouble(c.mainFloats[i])
	default:
		raw := c.mainBase + int64(c.mainPacked.get(i))
		return value.Value{K: c.Kind, I: raw}
	}
}

func (c *Column) getDelta(i int) value.Value {
	if c.deltaNulls.get(i) {
		return value.Null
	}
	switch c.Kind {
	case value.KindVarchar:
		return value.NewString(c.deltaDict[c.deltaCodes[i]])
	case value.KindDouble:
		return value.NewDouble(c.deltaFloats[i])
	default:
		return value.Value{K: c.Kind, I: c.deltaInts[i]}
	}
}

// Merge compresses the delta into a new main fragment: dictionary kinds get
// a sorted dictionary with bit-packed codes, integer kinds get
// frame-of-reference bit-packing. This is the column store's "delta merge".
func (c *Column) Merge() {
	n := c.Len()
	if c.deltaLen() == 0 {
		return
	}
	nulls := newBitmap(n)
	switch c.Kind {
	case value.KindVarchar:
		// Collect distinct non-null strings across both fragments.
		distinct := map[string]bool{}
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			v := c.Get(i)
			if v.IsNull() {
				nulls.set(i)
				continue
			}
			vals[i] = v.S
			distinct[v.S] = true
		}
		dict := make([]string, 0, len(distinct))
		for s := range distinct {
			dict = append(dict, s)
		}
		sort.Strings(dict)
		index := make(map[string]uint64, len(dict))
		for i, s := range dict {
			index[s] = uint64(i)
		}
		codes := make([]uint64, n)
		for i := 0; i < n; i++ {
			if !nulls.get(i) {
				codes[i] = index[vals[i]]
			}
		}
		var maxCode uint64
		if len(dict) > 0 {
			maxCode = uint64(len(dict) - 1)
		}
		c.mainDict = dict
		c.mainPacked = newPackedVec(codes, maxCode)
	case value.KindDouble:
		vals := make([]float64, n)
		distinct := map[float64]bool{}
		for i := 0; i < n; i++ {
			v := c.Get(i)
			if v.IsNull() {
				nulls.set(i)
				continue
			}
			vals[i] = v.F
			distinct[v.F] = true
		}
		// Dictionary-encode when it pays off (low cardinality), else raw.
		if len(distinct) > 0 && len(distinct) <= n/4 {
			dict := make([]float64, 0, len(distinct))
			for f := range distinct {
				dict = append(dict, f)
			}
			sort.Float64s(dict)
			index := make(map[float64]uint64, len(dict))
			for i, f := range dict {
				index[f] = uint64(i)
			}
			codes := make([]uint64, n)
			for i := 0; i < n; i++ {
				if !nulls.get(i) {
					codes[i] = index[vals[i]]
				}
			}
			c.mainFDict = dict
			c.mainFloats = nil
			c.mainPacked = newPackedVec(codes, uint64(len(dict)-1))
		} else {
			c.mainFDict = nil
			c.mainFloats = vals
			c.mainPacked = nil
		}
	default:
		vals := make([]int64, n)
		var minV, maxV int64
		first := true
		for i := 0; i < n; i++ {
			v := c.Get(i)
			if v.IsNull() {
				nulls.set(i)
				continue
			}
			vals[i] = v.I
			if first {
				minV, maxV = v.I, v.I
				first = false
			} else {
				if v.I < minV {
					minV = v.I
				}
				if v.I > maxV {
					maxV = v.I
				}
			}
		}
		codes := make([]uint64, n)
		for i := 0; i < n; i++ {
			if !nulls.get(i) {
				codes[i] = uint64(vals[i] - minV)
			}
		}
		var maxCode uint64
		if !first {
			maxCode = uint64(maxV - minV)
		}
		c.mainBase = minV
		c.mainPacked = newPackedVec(codes, maxCode)
	}
	c.mainN = n
	c.mainNulls = nulls
	// Reset delta.
	c.deltaInts, c.deltaFloats, c.deltaCodes, c.deltaDict = nil, nil, nil, nil
	if c.Kind == value.KindVarchar {
		c.deltaIndex = make(map[string]uint32)
	}
	c.deltaNulls = newBitmap(0)
}

// Scan calls fn for each value in [0, Len) until fn returns false.
func (c *Column) Scan(fn func(i int, v value.Value) bool) {
	n := c.Len()
	for i := 0; i < n; i++ {
		if !fn(i, c.Get(i)) {
			return
		}
	}
}

// DistinctCount returns the exact number of distinct non-null values. The
// main fragment answers from its dictionary — after a merge every entry is
// referenced by at least one row — so only the delta (and raw mains) need a
// walk, and the walk reads codes and raw arrays, never materialized values.
func (c *Column) DistinctCount() int {
	switch c.Kind {
	case value.KindVarchar:
		seen := make(map[string]bool, len(c.mainDict)+len(c.deltaDict))
		for _, s := range c.mainDict {
			seen[s] = true
		}
		for i, code := range c.deltaCodes {
			if !c.deltaNulls.get(i) {
				seen[c.deltaDict[code]] = true
			}
		}
		return len(seen)
	case value.KindDouble:
		seen := map[float64]bool{}
		if c.mainFDict != nil {
			for _, f := range c.mainFDict {
				seen[f] = true
			}
		} else {
			for i, f := range c.mainFloats {
				if !c.mainNulls.get(i) {
					seen[f] = true
				}
			}
		}
		for i, f := range c.deltaFloats {
			if !c.deltaNulls.get(i) {
				seen[f] = true
			}
		}
		return len(seen)
	default:
		seen := map[int64]bool{}
		for i := 0; i < c.mainN; i++ {
			if !c.mainNulls.get(i) {
				seen[c.mainBase+int64(c.mainPacked.get(i))] = true
			}
		}
		for i, x := range c.deltaInts {
			if !c.deltaNulls.get(i) {
				seen[x] = true
			}
		}
		return len(seen)
	}
}

// MinMax returns the smallest and largest non-null values, with ok=false
// for an all-null or empty column. The optimizer's zone-map and histogram
// construction uses it. Sorted main dictionaries answer in O(1) — their
// ends are the fragment's extremes — and the remaining fragments compare
// raw codes and primitives instead of materialized values.
func (c *Column) MinMax() (minV, maxV value.Value, ok bool) {
	switch c.Kind {
	case value.KindVarchar:
		var lo, hi string
		if len(c.mainDict) > 0 {
			lo, hi, ok = c.mainDict[0], c.mainDict[len(c.mainDict)-1], true
		}
		for i, code := range c.deltaCodes {
			if c.deltaNulls.get(i) {
				continue
			}
			s := c.deltaDict[code]
			switch {
			case !ok:
				lo, hi, ok = s, s, true
			case s < lo:
				lo = s
			case s > hi:
				hi = s
			}
		}
		if !ok {
			return value.Null, value.Null, false
		}
		return value.NewString(lo), value.NewString(hi), true
	case value.KindDouble:
		var lo, hi float64
		mergeF := func(f float64) {
			switch {
			case !ok:
				lo, hi, ok = f, f, true
			case f < lo:
				lo = f
			case f > hi:
				hi = f
			}
		}
		if c.mainFDict != nil {
			if len(c.mainFDict) > 0 {
				lo, hi, ok = c.mainFDict[0], c.mainFDict[len(c.mainFDict)-1], true
			}
		} else {
			for i, f := range c.mainFloats {
				if !c.mainNulls.get(i) {
					mergeF(f)
				}
			}
		}
		for i, f := range c.deltaFloats {
			if !c.deltaNulls.get(i) {
				mergeF(f)
			}
		}
		if !ok {
			return value.Null, value.Null, false
		}
		return value.NewDouble(lo), value.NewDouble(hi), true
	default:
		var lo, hi int64
		mergeI := func(x int64) {
			switch {
			case !ok:
				lo, hi, ok = x, x, true
			case x < lo:
				lo = x
			case x > hi:
				hi = x
			}
		}
		for i := 0; i < c.mainN; i++ {
			if !c.mainNulls.get(i) {
				mergeI(c.mainBase + int64(c.mainPacked.get(i)))
			}
		}
		for i, x := range c.deltaInts {
			if !c.deltaNulls.get(i) {
				mergeI(x)
			}
		}
		if !ok {
			return value.Null, value.Null, false
		}
		return value.Value{K: c.Kind, I: lo}, value.Value{K: c.Kind, I: hi}, true
	}
}

// MemSize estimates the column's in-memory footprint in bytes; Figure 2's
// compression comparison uses it.
func (c *Column) MemSize() int64 {
	var n int64 = 64 // struct overhead
	if c.mainPacked != nil {
		n += c.mainPacked.memSize()
	}
	for _, s := range c.mainDict {
		n += int64(len(s)) + 16
	}
	n += int64(len(c.mainFDict)) * 8
	n += int64(len(c.mainFloats)) * 8
	n += c.mainNulls.memSize()
	n += int64(len(c.deltaInts)) * 8
	n += int64(len(c.deltaFloats)) * 8
	n += int64(len(c.deltaCodes)) * 4
	for _, s := range c.deltaDict {
		n += int64(len(s)) + 16
	}
	n += c.deltaNulls.memSize()
	return n
}

// MergedRatio reports how much of the column sits in the compressed main
// fragment (1.0 = fully merged).
func (c *Column) MergedRatio() float64 {
	if c.Len() == 0 {
		return 1
	}
	return float64(c.mainN) / float64(c.Len())
}
