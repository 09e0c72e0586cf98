package value

import "testing"

// The hashing and comparison leaves run once per row per query operator;
// these tests pin them at zero heap allocations so a regression (like the
// hash/fnv constructor this replaced) cannot sneak back in.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, fn); n != 0 {
		t.Errorf("%s allocates %.1f times per call, want 0", name, n)
	}
}

func TestHashZeroAllocs(t *testing.T) {
	vals := []Value{
		Null,
		NewBool(true),
		NewInt(42),
		NewDouble(3.5),
		NewString("dictionary-encoded"),
		{K: KindDate, I: 19000},
	}
	for _, v := range vals {
		v := v
		assertZeroAllocs(t, "Value.Hash", func() { _ = v.Hash() })
	}
}

func TestRowOpsZeroAllocs(t *testing.T) {
	row := Row{NewInt(7), NewString("x"), NewDouble(1.25)}
	other := Row{NewInt(7), NewString("x"), NewDouble(2.5)}
	assertZeroAllocs(t, "KeyHash", func() { _ = KeyHash(row[:2]) })
	assertZeroAllocs(t, "KeysEqual", func() { _ = KeysEqual(row[:2], other[:2]) })
	assertZeroAllocs(t, "Compare", func() { _ = Compare(row[0], other[0]) })
}

// A key set built from a typed batch hashes the column in place and appends
// each new key to its typed vector: a 4,096-row batch of distinct BIGINT
// keys allocates per doubling of the index and of the key vector, never per
// key, so twice the keys cost a doubling or two more, not 2,048.
func TestKeySetAllocatesPerDoubling(t *testing.T) {
	allocs := func(n int) float64 {
		v := &Vec{Kind: KindInt, Ints: make([]int64, n)}
		rows := make([]int32, n)
		for i := range rows {
			v.Ints[i], rows[i] = int64(i*7), int32(i)
		}
		return testing.AllocsPerRun(20, func() {
			var s KeySet
			s.AddVec(v, rows)
			if s.Len() != n {
				t.Fatalf("%d keys in a set of %d distinct", s.Len(), n)
			}
		})
	}
	half, full := allocs(2048), allocs(4096)
	t.Logf("2,048 keys: %.0f allocations; 4,096: %.0f", half, full)
	if full > half+3 || full > 40 {
		t.Errorf("4,096 keys allocate %.0f times, 2,048 keys %.0f: the set allocates per key", full, half)
	}
}
