package diskstore

import (
	"math"
	"testing"

	"hana/internal/value"
)

// decodeBoxed decodes a chunk and boxes each row through Vec.Value, the one
// way a reader turns a typed chunk back into values.
func decodeBoxed(data []byte) ([]value.Value, error) {
	v, n, err := decodeChunk(data)
	if err != nil {
		return nil, err
	}
	vals := make([]value.Value, n)
	for i := range vals {
		vals[i] = v.Value(i)
	}
	return vals, nil
}

// sameBits reports whether two values are the same to the bit: kind,
// payload, and a double's IEEE bits, so that -0.0 differs from 0.0 and NaN
// equals itself.
func sameBits(a, b value.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// typedSchema has one column of every kind a chunk encodes.
func typedSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "b", Kind: value.KindBool},
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "d", Kind: value.KindDate},
		value.Column{Name: "ts", Kind: value.KindTimestamp},
		value.Column{Name: "f", Kind: value.KindDouble},
		value.Column{Name: "s", Kind: value.KindVarchar},
	)
}

// typedRow is row i of the typed-decode table: NULL in every column at rows
// 0, 63, 64 and last, and doubles that only compare equal by their bits,
// NaN and ±Inf among them (a zone bound keeps a double's bits).
func typedRow(i, last int) value.Row {
	if i == 0 || i == 63 || i == 64 || i == last {
		return value.Row{value.Null, value.Null, value.Null, value.Null, value.Null, value.Null}
	}
	doubles := []float64{math.Copysign(0, -1), 0, 5e-324, -2.5, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "b", "a", "", "zz"}
	s := value.NewString(strs[i%len(strs)])
	if i%11 == 5 {
		s = value.Null
	}
	return value.Row{
		value.NewBool(i%3 == 0),
		value.NewInt(int64(i*7919) - 1<<40),
		value.NewDate(int64(16000 + i%50)),
		value.NewTimestamp(int64(i) * 1_000_003),
		value.NewDouble(doubles[i%len(doubles)]),
		s,
	}
}

// A chunk decodes to the typed vector the column store hands up, and every
// row it boxes to is the value that was written, to the bit — -0.0, NaN and
// ±Inf included, "" distinct from NULL — whether the batch covers a whole
// chunk, starts inside a bitmap word, or is the unflushed tail; a column
// added after the chunk was written reads NULL. A chunk span is never boxed.
func TestTypedDecodeMatchesWrittenValues(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("typed", typedSchema())
	if err != nil {
		t.Fatal(err)
	}
	const flushed, tail = 300, 70
	var want []value.Row
	for i := 0; i < flushed; i++ {
		want = append(want, typedRow(i, flushed-1))
	}
	if err := tbl.BulkLoad(want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail; i++ {
		r := typedRow(i, tail-1)
		want = append(want, r)
		if err := tbl.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AddColumn(value.Column{Name: "late", Kind: value.KindVarchar}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = append(want[i].Clone(), value.Null)
	}

	for _, sp := range []Span{{0, flushed}, {70, 200}, {64, 65}, {131, flushed}, {flushed, flushed + tail}, {flushed + 3, flushed + 66}} {
		b, err := tbl.ReadBatch(sp.Lo, sp.Hi, nil)
		if err != nil {
			t.Fatalf("span %v: %v", sp, err)
		}
		if b.N != int(sp.Hi-sp.Lo) {
			t.Fatalf("span %v: batch of %d rows", sp, b.N)
		}
		for c := range b.Cols {
			v := &b.Cols[c]
			if v.Vals != nil {
				t.Fatalf("span %v column %d is boxed", sp, c)
			}
			if sp.Lo < flushed && v.Kind == value.KindVarchar && (v.Codes == nil || v.Sorted) {
				t.Fatalf("span %v column %d is not coded against the chunk's dictionary", sp, c)
			}
			for k := 0; k < b.N; k++ {
				if got, w := v.Value(k), want[int(sp.Lo)+k][c]; !sameBits(got, w) {
					t.Fatalf("span %v row %d column %d: %#v, wrote %#v", sp, int(sp.Lo)+k, c, got, w)
				}
			}
		}
	}

	// The codec alone: each column's values through encodeChunk and back,
	// the doubles with NaN and ±Inf among them.
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for c, col := range tbl.Schema().Cols {
		vals := make([]value.Value, flushed)
		for i := range vals {
			vals[i] = want[i][c]
			if col.Kind == value.KindDouble && i%4 == 1 {
				vals[i] = value.NewDouble(specials[i%3])
			}
		}
		data, err := encodeChunk(col.Kind, vals)
		if err != nil {
			t.Fatal(err)
		}
		v, n, err := decodeChunk(data)
		if err != nil || n != flushed {
			t.Fatalf("%s: %d rows, %v", col.Name, n, err)
		}
		for i := range vals {
			if !sameBits(v.Value(i), vals[i]) {
				t.Fatalf("%s row %d: %#v, wrote %#v", col.Name, i, v.Value(i), vals[i])
			}
		}
	}
}

// Reading a cached chunk allocates the batch and its column headers and
// nothing per row: a 4096-row chunk costs what a 64-row chunk does.
func TestReadBatchOfCachedChunkAllocatesPerColumn(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(name string, n int) float64 {
		tbl, err := s.CreateTable(name, typedSchema())
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = typedRow(i, n-1)
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.ReadBatch(0, int64(n), nil); err != nil { // fills the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := tbl.ReadBatch(0, int64(n), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("SMALL", 64), allocs("LARGE", 4096)
	if cols := float64(typedSchema().Len()); large != small || large > cols+2 {
		t.Fatalf("ReadBatch of a cached chunk: %v allocations at 4096 rows, %v at 64", large, small)
	}
}
