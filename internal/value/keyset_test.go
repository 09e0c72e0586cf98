package value

import (
	"math"
	"testing"
)

// The per-vector hash and equality give what Value.Hash and Compare give on
// the boxed values, for every pair of rows across every vector form: typed
// payloads of each kind, a dictionary, a boxed column of mixed kinds and a
// pruned one, with NULLs, −0.0 and 0.0, two NaN payloads, 1 and 1.0, 2^53
// and 2^53+1, and a DATE and a TIMESTAMP of one encoding.
func TestVecHashAndEqualityMatchBoxed(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	vec := func(k Kind, vals ...Value) *Vec {
		b := BatchFromRows(NewSchema(Column{Name: "c", Kind: k}), rowsOf(vals), nil)
		return &b.Cols[0]
	}
	vecs := []*Vec{
		vec(KindInt, NewInt(1), Null, NewInt(0), NewInt(1<<53), NewInt(1<<53+1)),
		vec(KindDouble, NewDouble(1), NewDouble(math.Copysign(0, -1)), NewDouble(0), Null, NewDouble(math.NaN()), NewDouble(nan2), NewDouble(1<<53)),
		vec(KindDate, NewDate(1), Null, NewDate(19000)),
		vec(KindTimestamp, NewTimestamp(1), NewTimestamp(19000)),
		vec(KindBool, NewBool(true), NewBool(false), Null),
		vec(KindVarchar, NewString("a"), Null, NewString("")),
		{Kind: KindVarchar, Codes: []uint32{1, 0, 1}, Dict: []string{"", "a"}, Nulls: []uint64{4}},
		vec(KindInt, NewInt(1), NewDouble(1), NewString("a"), Null),
		{Kind: KindInt, Pruned: true},
	}
	size := func(v *Vec) int {
		if v.Pruned {
			return 2
		}
		return max(len(v.Ints), len(v.Floats), len(v.Strs), len(v.Codes), len(v.Vals))
	}
	for a, v := range vecs {
		rows := make([]int32, size(v))
		hs := make([]uint64, len(rows))
		for i := range rows {
			rows[i], hs[i] = int32(i), KeyHashSeed
		}
		HashVec(hs, v, rows, nil)
		for i := range rows {
			x := v.Value(i)
			if hs[i] != KeyHash([]Value{x}) || v.HashAt(i) != x.Hash() {
				t.Errorf("vector %d row %d (%v): hash differs from Value.Hash", a, i, x)
			}
			for b, w := range vecs {
				for j := 0; j < size(w); j++ {
					y := w.Value(j)
					want := Compare(x, y) == 0
					if VecEqual(v, i, w, j) != want || v.Equals(i, y) != want {
						t.Errorf("vector %d row %d (%v) vs vector %d row %d (%v): equal = %v, %v; Compare says %v",
							a, i, x, b, j, y, VecEqual(v, i, w, j), v.Equals(i, y), want)
					}
					if want && x.Hash() != y.Hash() {
						t.Errorf("%v and %v are equal but hash apart", x, y)
					}
				}
			}
		}
	}
}

func rowsOf(vals []Value) []Row {
	rows := make([]Row, len(vals))
	for i, v := range vals {
		rows[i] = Row{v}
	}
	return rows
}
