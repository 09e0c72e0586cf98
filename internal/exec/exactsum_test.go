package exec

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference: the exact sum in a big.Float wide enough for any
// finite float64 total, rounded to nearest-even. An exact zero is +0, as
// ExactSum returns.
func bigSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(4096)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(4096).SetFloat64(x))
	}
	f, _ := acc.Float64()
	return f + 0
}

// randomFinite draws from the shapes an exact sum has to get right: any
// finite bit pattern below 2^1000 (so a few thousand of them cannot overflow),
// subnormals, small integers, values straddling a power of two, exact
// half-ulp ties, and the negation of an earlier value.
func randomFinite(r *rand.Rand, prev []float64) float64 {
	switch r.Intn(7) {
	case 0:
		for {
			x := math.Float64frombits(r.Uint64())
			if !math.IsNaN(x) && math.Abs(x) < 0x1p1000 {
				return x
			}
		}
	case 1:
		return math.Float64frombits(r.Uint64()>>12) * float64(1-2*r.Intn(2)) // subnormal
	case 2:
		return float64(r.Intn(2000) - 1000)
	case 3:
		return math.Ldexp(1+float64(r.Intn(4))*0x1p-52, r.Intn(120)-60)
	case 4:
		e := r.Intn(100) - 50
		return math.Ldexp(1, e-53) // half an ulp of 2^e: ties against 2^e
	case 5:
		if len(prev) > 0 {
			return -prev[r.Intn(len(prev))]
		}
	}
	return (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(80)-40)
}

func sumOf(xs []float64) *ExactSum {
	var s ExactSum
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func TestExactSumMatchesBigFloatInAnyOrderAndSplit(t *testing.T) {
	r := rand.New(rand.NewSource(2015))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(60)
		if trial%100 == 0 {
			n = 2000
		}
		xs := make([]float64, 0, n)
		for len(xs) < n {
			xs = append(xs, randomFinite(r, xs))
		}
		want := bigSum(xs)
		check := func(how string, got float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d, %s: got %v (%016x), big.Float gives %v (%016x)\ninput %v",
					trial, how, got, math.Float64bits(got), want, math.Float64bits(want), xs)
			}
		}
		serial := sumOf(xs)
		check("in order", serial.Float())
		canon := serial.AppendPartials(nil)
		for k := 0; k < 3; k++ {
			ys := append([]float64(nil), xs...)
			r.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
			check("shuffled", sumOf(ys).Float())

			// Cut into random states, merged in a random order.
			var parts []*ExactSum
			for lo := 0; lo < len(ys); {
				hi := lo + 1 + r.Intn(len(ys)-lo)
				parts = append(parts, sumOf(ys[lo:hi]))
				lo = hi
			}
			r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			var merged ExactSum
			for _, p := range parts {
				merged.Merge(p)
			}
			check("split and merged", merged.Float())

			// The wire form depends on the total alone, and adding it back
			// rebuilds a state with the same wire form.
			if got := merged.AppendPartials(nil); !equalBits(got, canon) {
				t.Fatalf("trial %d: split and merged, the partials are %v, in order %v", trial, got, canon)
			}
			if got := sumOf(canon).AppendPartials(nil); !equalBits(got, canon) {
				t.Fatalf("trial %d: rebuilding %v from its partials gave %v", trial, canon, got)
			}
			if rebuilt := sumOf(canon).Float(); math.Float64bits(rebuilt) != math.Float64bits(want) {
				t.Fatalf("trial %d: rebuilt from %v, the sum is %v, want %v", trial, canon, rebuilt, want)
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Hand-picked cases the random ones may miss: cancellation that leaves a
// tiny remainder, ties broken by a partial far below, and subnormal totals.
func TestExactSumEdgeCases(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, xs := range [][]float64{
		{1e16, 1, -1e16},
		{1, 0x1p-53},                  // a tie: to even, 1
		{1, 0x1p-53, 0x1p-200},        // just past the tie: up
		{1, 0x1p-53, -0x1p-200},       // just short of it: 1
		{1 + 0x1p-52, 0x1p-53},        // a tie: to even, up
		{1 + 0x1p-52, 0x1p-53, -tiny}, // just short of it: down
		{tiny, tiny, -tiny},
		{math.MaxFloat64, -math.MaxFloat64, tiny},
		{0.1, 0.2, 0.3, -0.6},
		{math.Copysign(0, -1)},
		{},
	} {
		if got, want := sumOf(xs).Float(), bigSum(xs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sum of %v = %v, want %v", xs, got, want)
		}
	}
}

// NaN and the infinities stay apart from the partials and combine by IEEE
// rules, in any order; a finite running total that overflows becomes an
// infinity at the Add where it does — the one order-dependent case.
func TestExactSumNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, inf, 2}, inf},
		{[]float64{-inf, 1e300, -inf}, -inf},
		{[]float64{inf, -inf}, nan},
		{[]float64{3, nan, inf}, nan},
		{[]float64{math.Float64frombits(0x7ff8000000000abc), 1}, nan}, // one NaN pattern, whatever the payload
	} {
		reversed := make([]float64, len(tc.xs))
		for i, x := range tc.xs {
			reversed[len(tc.xs)-1-i] = x
		}
		for _, ys := range [][]float64{tc.xs, reversed} {
			s := sumOf(ys)
			if got := s.Float(); math.Float64bits(got) != math.Float64bits(tc.want) {
				t.Errorf("sum of %v = %v (%016x), want %v", ys, got, math.Float64bits(got), tc.want)
			}
			if ps := s.AppendPartials(nil); len(ps) != 1 {
				t.Errorf("a non-finite sum carries its total alone, got %v", ps)
			}
		}
	}
	// Split into states, the non-finite side merges in either direction.
	a, b := sumOf([]float64{inf}), sumOf([]float64{1, 2})
	b.Merge(a)
	if got := b.Float(); got != inf {
		t.Errorf("merging +Inf into a finite sum = %v", got)
	}

	m := math.MaxFloat64
	if got := sumOf([]float64{m, m, -m}).Float(); got != inf {
		t.Errorf("MaxFloat64+MaxFloat64-MaxFloat64 in that order = %v, want +Inf (overflow at the second Add)", got)
	}
	if got := sumOf([]float64{m, -m, m}).Float(); got != m {
		t.Errorf("MaxFloat64-MaxFloat64+MaxFloat64 = %v, want MaxFloat64", got)
	}
}

// Adding to a state of at most four partials — the common case, values of
// one magnitude — allocates nothing; the fifth partial spills.
func TestExactSumAddDoesNotAllocateInline(t *testing.T) {
	var s ExactSum
	xs := []float64{0x1p-300, 0x1p-100, 1, 0x1p100}
	for _, x := range xs[:3] {
		s.Add(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(xs[3])
		s.Add(-xs[3])
		s.Add(12.25)
		s.Add(-12.25)
	})
	if allocs != 0 {
		t.Fatalf("Add on an inline state allocated %.1f times per run", allocs)
	}
	if len(s.AppendPartials(nil)) != 3 {
		t.Fatalf("partials %v, want the three first added", s.AppendPartials(nil))
	}
	s.Add(xs[3])
	s.Add(0x1p200)
	if got := s.AppendPartials(nil); len(got) != 5 || got[4] != 0x1p200 {
		t.Fatalf("after a fifth partial: %v", got)
	}
}
