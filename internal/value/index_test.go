package value

import (
	"math"
	"math/rand"
	"testing"
)

// indexValue draws values of every kind from small domains, so equal keys
// recur: NULL, BOOL, BIGINT and DOUBLE numbers that Compare equates (1 and
// 1.0, −0.0 and 0.0), three NaN payloads, +Inf, VARCHARs, and DATEs beside
// the TIMESTAMPs of the same encoding.
func indexValue(r *rand.Rand) Value {
	nans := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0xfff8000000000000)}
	switch r.Intn(9) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 1)
	case 2:
		return NewInt(int64(r.Intn(40) - 20))
	case 3:
		return NewDouble(float64(r.Intn(40)-20) / float64(1+r.Intn(2)))
	case 4:
		return NewDouble(math.Copysign(0, float64(r.Intn(2)*2-1)))
	case 5:
		return NewDouble([]float64{nans[r.Intn(3)], math.Inf(1)}[r.Intn(2)])
	case 6:
		return NewString(string(rune('a' + r.Intn(20))))
	case 7:
		return NewDate(int64(r.Intn(20)))
	}
	return NewTimestamp(int64(r.Intn(20)))
}

// findLinear is the index's contract spelled out: the first of vals that
// Compares equal to v, or -1.
func findLinear(vals []Value, v Value) int {
	for o, w := range vals {
		if Compare(w, v) == 0 {
			return o
		}
	}
	return -1
}

// findUnder walks x for v under hash h, as Find does under v's KeyHash.
func findUnder(x *Index, vals []Value, v Value, h uint64) (int, Probe) {
	p := x.Probe(h)
	for o := x.Next(&p); o >= 0; o = x.Next(&p) {
		if Compare(vals[o], v) == 0 {
			return o, p
		}
	}
	return -1, p
}

// The index finds what a linear Compare scan finds, for values of every
// kind, under the real hash and with every hash forced equal, while it
// grows through each doubling: after every insert every value kept so far
// is found again at its ordinal.
func TestIndexLookupMatchesLinearScan(t *testing.T) {
	for _, colliding := range []bool{false, true} {
		r := rand.New(rand.NewSource(2015))
		var x Index
		var vals []Value
		hash := func(v Value) uint64 {
			if colliding {
				return 7
			}
			return KeyHash([]Value{v})
		}
		for step := 0; step < 4000 && len(vals) < 300; step++ {
			v := indexValue(r)
			if colliding && len(vals) >= 70 {
				v = NewInt(int64(1000 + step)) // every key new: past several doublings
			}
			want := findLinear(vals, v)
			got, p := findUnder(&x, vals, v, hash(v))
			if !colliding {
				if f, _ := x.Find(vals, v); f != got {
					t.Fatalf("Find(%v) = %d, the walk under KeyHash %d", v, f, got)
				}
			}
			if got != want {
				t.Fatalf("colliding=%v: lookup of %v = %d, linear scan %d", colliding, v, got, want)
			}
			if got >= 0 {
				continue
			}
			if o := x.Insert(p); o != len(vals) {
				t.Fatalf("insert %d took ordinal %d", len(vals), o)
			}
			vals = append(vals, v)
			if x.Len() != len(vals) || 2*x.Len() > len(x.cells)/2 {
				t.Fatalf("%d entries in %d slots", x.Len(), len(x.cells)/2)
			}
			for o, w := range vals {
				if got, _ := findUnder(&x, vals, w, hash(w)); got != o {
					t.Fatalf("colliding=%v: after %d inserts, %v (ordinal %d) is found at %d", colliding, len(vals), w, o, got)
				}
			}
		}
		if len(vals) < 2*minIndexSlots {
			t.Fatalf("colliding=%v: only %d distinct values, the index never grew", colliding, len(vals))
		}
	}
}

// A walk meets the entries of one hash in insertion order across every
// doubling, and a caller's duplicate chain — one entry per distinct key, the
// equal keys linked through next as the hash join links its build rows —
// lists each key's items in input order.
func TestIndexKeepsInsertionOrder(t *testing.T) {
	var x Index
	for n := 1; n <= 100; n++ {
		x.Add(42)
		if n%2 == 1 {
			x.Add(uint64(n)) // other hashes between
		}
		p, prev := x.Probe(42), -1
		seen := 0
		for o := x.Next(&p); o >= 0; o = x.Next(&p) {
			if o <= prev {
				t.Fatalf("after %d adds, ordinal %d follows %d", n, o, prev)
			}
			prev, seen = o, seen+1
		}
		if seen != n {
			t.Fatalf("after %d adds of hash 42, the walk meets %d", n, seen)
		}
	}

	r := rand.New(rand.NewSource(39))
	items := make([]Value, 500)
	for i := range items {
		items[i] = indexValue(r)
	}
	var idx Index
	var keys []Value
	var first []int32
	next := make([]int32, len(items))
	for i := len(items) - 1; i >= 0; i-- {
		e, p := idx.Find(keys, items[i])
		if e < 0 {
			e = idx.Insert(p)
			keys, first = append(keys, items[i]), append(first, -1)
		}
		next[i], first[e] = first[e]+1, int32(i)
	}
	for _, v := range items {
		var want []int
		for i, w := range items {
			if Compare(w, v) == 0 {
				want = append(want, i)
			}
		}
		e, _ := idx.Find(keys, v)
		var got []int
		for i := int(first[e]); i >= 0; i = int(next[i]) - 1 {
			got = append(got, i)
		}
		if len(got) != len(want) {
			t.Fatalf("chain of %v = %v, want %v", v, got, want)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("chain of %v = %v, want %v", v, got, want)
			}
		}
	}
}
