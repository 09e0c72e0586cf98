package exec

import (
	"math"
	"slices"
)

// MaxPartials bounds the partials of a finite ExactSum: they do not overlap,
// and a float64 has 2098 bit positions (2^-1074 … 2^1023). A wire decoder
// rejects a longer list.
const MaxPartials = 2098

// ExactSum accumulates float64 values with no rounding error: the running
// total is a list of non-overlapping partials in increasing magnitude
// (Shewchuk's expansion, the one Python's math.fsum keeps), so Add and Merge
// are exact and Float rounds the exact total once, to nearest-even. The
// result depends only on the multiset of values added — not on their order,
// nor on how they were split into states that were then merged — which is
// what lets a morsel, a worker shard or a map task ship a partial sum that
// merges to exactly what one serial pass returns.
//
// NaN and ±Inf inputs are kept apart from the partials and combine by IEEE
// rules: any NaN, or both infinities, give NaN; otherwise the infinity. The
// one order-dependent edge is overflow: a finite running total that leaves
// the float64 range becomes ±Inf at the Add where it first does, so
// MaxFloat64 + MaxFloat64 - MaxFloat64 is +Inf in that order and MaxFloat64
// in an order that cancels first.
//
// The first four partials live inline — values of one magnitude rarely need
// more — so Add on such a state does not allocate. The zero value is the
// empty sum. A copy shares its spilled partials with the original: copy a
// state with Merge into a zero one before adding to either.
type ExactSum struct {
	n       int
	inline  [4]float64
	spill   []float64 // all partials once more than four were needed; inline is unused then
	special float64   // IEEE sum of the non-finite inputs; 0 while there are none
}

// parts returns the partials in place.
func (s *ExactSum) parts() []float64 {
	if s.spill != nil {
		return s.spill
	}
	return s.inline[:s.n]
}

// Add adds x exactly.
func (s *ExactSum) Add(x float64) {
	if x-x != 0 { // ±Inf or NaN
		s.addSpecial(x)
		return
	}
	if x == 0 || s.special != 0 {
		return
	}
	ps := s.parts()
	i := 0
	for _, y := range ps {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			ps[i] = lo
			i++
		}
		x = hi
	}
	if x-x != 0 { // the finite total left the float64 range
		s.addSpecial(x)
		return
	}
	if s.spill == nil && i == len(s.inline) && x != 0 { // a fifth partial
		s.spill = append(make([]float64, 0, 2*len(s.inline)), s.inline[:]...)
	}
	if s.spill != nil {
		s.spill = s.spill[:i]
		if x != 0 {
			s.spill = append(s.spill, x)
		}
		return
	}
	if x != 0 {
		s.inline[i] = x
		i++
	}
	s.n = i
}

// addSpecial folds a non-finite value in; from then on the partials cannot
// change the result, so they are dropped.
func (s *ExactSum) addSpecial(x float64) {
	s.special += x
	if s.special != s.special {
		s.special = math.NaN() // one bit pattern, whatever payload the inputs carried
	}
	s.n, s.spill = 0, nil
}

// Merge adds every value o holds, exactly.
func (s *ExactSum) Merge(o *ExactSum) {
	if o.special != 0 {
		s.addSpecial(o.special)
		return
	}
	for _, p := range o.parts() {
		s.Add(p)
	}
}

// AppendPartials appends values whose Adds rebuild s: its non-finite total
// alone, or else the canonical expansion of its exact total in increasing
// magnitude — the total rounded to nearest, then what remains rounded, and
// so on. The list depends only on the total, not on how s was built (the
// partials s holds do not: they record the order of the Adds), so equal sums
// encode to equal bytes. A wire form carries this list, and a decoder Adds
// each entry rather than trusting it, so a hostile list is renormalized.
func (s *ExactSum) AppendPartials(dst []float64) []float64 {
	ps := s.parts()
	switch {
	case s.special != 0:
		return append(dst, s.special)
	case len(ps) <= 1:
		return append(dst, ps...)
	}
	var rest ExactSum
	rest.Merge(s)
	start := len(dst)
	for c := rest.Float(); c != 0; c = rest.Float() {
		dst = append(dst, c)
		if c-c != 0 { // the total rounds past the float64 range
			break
		}
		rest.Add(-c)
	}
	slices.Reverse(dst[start:])
	return dst
}

// Float returns the exact total rounded to the nearest float64, ties to
// even (math.fsum's final pass), or the non-finite total.
func (s *ExactSum) Float() float64 {
	if s.special != 0 {
		return s.special
	}
	ps := s.parts()
	n := len(ps)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := ps[n], 0.0
	// Add from the top down, stopping at the first inexact step: the
	// partials below it can only decide which way that step rounds.
	for n > 0 {
		x := hi
		n--
		y := ps[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	// When lo is exactly half an ulp of hi, hi broke a tie to even; a
	// remaining partial of lo's sign puts the exact total past the tie, so
	// round the other way.
	if n > 0 && (lo < 0 && ps[n-1] < 0 || lo > 0 && ps[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
