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
