package hive

import (
	"testing"

	"hana/internal/tpch"
	"hana/internal/value"
)

// TestDecodeRecordZeroAllocs pins the per-record cost of a map stage's read:
// checking a lineitem-width record and building the few columns a stage
// reads into the row it borrowed allocates nothing (a VARCHAR is a
// substring of the record).
func TestDecodeRecordZeroAllocs(t *testing.T) {
	schema := tpch.Schemas()["lineitem"]
	d, _ := value.ParseDate("1995-03-15")
	row := make(value.Row, schema.Len())
	for i, c := range schema.Cols {
		switch c.Kind {
		case value.KindInt:
			row[i] = value.NewInt(int64(1000 + i))
		case value.KindDouble:
			row[i] = value.NewDouble(float64(i) + 0.25)
		case value.KindDate:
			row[i] = d
		default:
			row[i] = value.NewString("a lineitem comment of some length")
		}
	}
	rec := EncodeRow(row)
	keep := []int{0, 4, 5, 6, 8, 10, 15}
	need := []bool{true, false, true, true, false, true, true}
	rd := newRowReader(schema, keep, need)
	s := rd.borrow()
	defer rd.release(s)
	if err := rd.decode(s.row, rec); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := rd.decode(s.row, rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("masked decode of a lineitem record allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		var err error
		if s.out, err = rd.read(s.row, rec, s.out[:0], true); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("masked decode and projection of a lineitem record allocates %.1f times, want 0", allocs)
	}
}
