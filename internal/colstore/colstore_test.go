package colstore

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hana/internal/value"
)

func TestPackedVecRoundTrip(t *testing.T) {
	codes := []uint64{0, 1, 5, 1023, 7, 0, 512}
	p := newPackedVec(codes, 1023)
	if p.width != 10 {
		t.Fatalf("width = %d", p.width)
	}
	for i, c := range codes {
		if got := p.get(i); got != c {
			t.Fatalf("get(%d) = %d want %d", i, got, c)
		}
	}
}

func TestPackedVecZeroWidth(t *testing.T) {
	p := newPackedVec([]uint64{0, 0, 0}, 0)
	if p.width != 0 || p.get(1) != 0 || p.len() != 3 {
		t.Fatal("zero-width vector")
	}
	if p.memSize() > 32 {
		t.Fatal("zero-width vector should cost almost nothing")
	}
}

func TestPackedVecProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		codes := make([]uint64, len(raw))
		var maxC uint64
		for i, r := range raw {
			codes[i] = uint64(r)
			if uint64(r) > maxC {
				maxC = uint64(r)
			}
		}
		p := newPackedVec(codes, maxC)
		for i := range codes {
			if p.get(i) != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitmap(t *testing.T) {
	b := newBitmap(0)
	b.set(3)
	b.set(100)
	if !b.get(3) || !b.get(100) || b.get(4) || b.get(1000) {
		t.Fatal("bitmap get/set")
	}
	if b.count() != 2 {
		t.Fatalf("count = %d", b.count())
	}
}

func TestColumnAppendGetVarchar(t *testing.T) {
	c := NewColumn(value.KindVarchar)
	words := []string{"alpha", "beta", "alpha", "gamma", "beta", "alpha"}
	for _, w := range words {
		if err := c.Append(value.NewString(w)); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range words {
		if got := c.Get(i).String(); got != w {
			t.Fatalf("Get(%d) = %q want %q", i, got, w)
		}
	}
	if len(c.deltaDict) != 3 {
		t.Fatalf("delta dictionary size = %d (want 3 distinct)", len(c.deltaDict))
	}
}

func TestColumnMergePreservesValues(t *testing.T) {
	for _, kind := range []value.Kind{value.KindInt, value.KindVarchar, value.KindDouble, value.KindDate} {
		c := NewColumn(kind)
		var want []value.Value
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			var v value.Value
			if i%17 == 0 {
				v = value.Null
			} else {
				switch kind {
				case value.KindInt:
					v = value.NewInt(rng.Int63n(10000) - 5000)
				case value.KindVarchar:
					v = value.NewString(fmt.Sprintf("val-%d", rng.Intn(50)))
				case value.KindDouble:
					v = value.NewDouble(float64(rng.Intn(20))) // low cardinality → dict
				case value.KindDate:
					v = value.NewDate(int64(8000 + rng.Intn(3650)))
				}
			}
			want = append(want, v)
			if err := c.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		c.Merge()
		if c.deltaLen() != 0 {
			t.Fatalf("%v: delta not empty after merge", kind)
		}
		for i, w := range want {
			got := c.Get(i)
			if w.IsNull() != got.IsNull() || (!w.IsNull() && value.Compare(w, got) != 0) {
				t.Fatalf("%v: Get(%d) = %v want %v", kind, i, got, w)
			}
		}
		// Appends after merge still work and interleave correctly.
		if err := c.Append(value.NewInt(42)); kind == value.KindInt && err != nil {
			t.Fatal(err)
		}
	}
}

func TestColumnMergeCompresses(t *testing.T) {
	// A million-row low-cardinality int column must compress far below 8
	// bytes/value after merge.
	c := NewColumn(value.KindInt)
	for i := 0; i < 100000; i++ {
		_ = c.Append(value.NewInt(int64(i % 16)))
	}
	before := c.MemSize()
	c.Merge()
	after := c.MemSize()
	if after >= before/10 {
		t.Fatalf("merge did not compress: before=%d after=%d", before, after)
	}
	// 16 distinct values → 4-bit codes → ~50KB for 100k rows.
	if after > 80000 {
		t.Fatalf("packed size too large: %d", after)
	}
}

func TestColumnDoubleHighCardinalityRaw(t *testing.T) {
	c := NewColumn(value.KindDouble)
	for i := 0; i < 1000; i++ {
		_ = c.Append(value.NewDouble(float64(i) * 1.5))
	}
	c.Merge()
	if c.mainFDict != nil {
		t.Fatal("high-cardinality doubles should stay raw")
	}
	if c.Get(10).Float() != 15 {
		t.Fatal("raw double read")
	}
}

func TestColumnMinMaxDistinct(t *testing.T) {
	c := NewColumn(value.KindInt)
	for _, i := range []int64{5, 2, 9, 2, 7} {
		_ = c.Append(value.NewInt(i))
	}
	_ = c.Append(value.Null)
	minV, maxV, ok := c.MinMax()
	if !ok || minV.Int() != 2 || maxV.Int() != 9 {
		t.Fatalf("minmax = %v %v %v", minV, maxV, ok)
	}
	if c.DistinctCount() != 4 {
		t.Fatalf("distinct = %d", c.DistinctCount())
	}
}

func newTestTable() *Table {
	return NewTable(value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "name", Kind: value.KindVarchar},
		value.Column{Name: "amount", Kind: value.KindDouble},
	))
}

func TestTableAppendScan(t *testing.T) {
	tbl := newTestTable()
	for i := 0; i < 100; i++ {
		id, err := tbl.Append(value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("n%d", i%10)),
			value.NewDouble(float64(i) * 0.5),
		})
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("row id = %d want %d", id, i)
		}
	}
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	count := 0
	tbl.Scan(func(id int, row value.Row) bool {
		if row[0].Int() != int64(id) {
			t.Fatalf("scan mismatch at %d", id)
		}
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("scanned %d", count)
	}
	// Early termination.
	count = 0
	tbl.Scan(func(int, value.Row) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatal("scan early stop")
	}
}

func TestTableScanColumnsProjection(t *testing.T) {
	tbl := newTestTable()
	for i := 0; i < 10; i++ {
		_, _ = tbl.Append(value.Row{value.NewInt(int64(i)), value.NewString("x"), value.NewDouble(1)})
	}
	tbl.ScanColumns([]int{2, 0}, func(id int, row value.Row) bool {
		if len(row) != 2 || row[1].Int() != int64(id) {
			t.Fatalf("projection scan wrong: %v", row)
		}
		return true
	})
}

func TestTableArityMismatch(t *testing.T) {
	tbl := newTestTable()
	if _, err := tbl.Append(value.Row{value.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestTableAutoMerge(t *testing.T) {
	tbl := newTestTable()
	tbl.AutoMergeThreshold = 50
	for i := 0; i < 120; i++ {
		_, _ = tbl.Append(value.Row{value.NewInt(int64(i)), value.NewString("a"), value.NewDouble(0)})
	}
	if tbl.Column(0).MergedRatio() < 0.8 {
		t.Fatalf("auto merge did not run: ratio %f", tbl.Column(0).MergedRatio())
	}
	// All values still readable.
	for i := 0; i < 120; i++ {
		if tbl.GetValue(i, 0).Int() != int64(i) {
			t.Fatalf("value lost after auto merge at %d", i)
		}
	}
}

func TestTableSetValue(t *testing.T) {
	tbl := newTestTable()
	_, _ = tbl.Append(value.Row{value.NewInt(1), value.NewString("a"), value.NewDouble(0)})
	_, _ = tbl.Append(value.Row{value.NewInt(2), value.NewString("b"), value.NewDouble(0)})
	tbl.Merge()
	if err := tbl.SetValue(1, 1, value.NewString("updated")); err != nil {
		t.Fatal(err)
	}
	if got := tbl.GetValue(1, 1).String(); got != "updated" {
		t.Fatalf("SetValue = %q", got)
	}
	if got := tbl.GetValue(0, 1).String(); got != "a" {
		t.Fatal("neighbor row damaged")
	}
	if err := tbl.SetValue(99, 1, value.Null); err == nil {
		t.Fatal("out of range SetValue must error")
	}
}

func TestTableAddColumnFlexible(t *testing.T) {
	tbl := newTestTable()
	_, _ = tbl.Append(value.Row{value.NewInt(1), value.NewString("a"), value.NewDouble(0)})
	tbl.AddColumn(value.Column{Name: "extra", Kind: value.KindVarchar, Nullable: true})
	if tbl.Schema().Len() != 4 {
		t.Fatal("schema not extended")
	}
	if !tbl.GetValue(0, 3).IsNull() {
		t.Fatal("existing row must read NULL in new column")
	}
	_, err := tbl.Append(value.Row{value.NewInt(2), value.NewString("b"), value.NewDouble(0), value.NewString("e")})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.GetValue(1, 3).String() != "e" {
		t.Fatal("new column value")
	}
}

func TestColumnarCompressionVsRowEstimate(t *testing.T) {
	// The paper's Figure 2 claims columnar dictionary compression reduces
	// repetitive data footprint by large factors vs row storage. Check the
	// mechanism: 100k rows of a 20-distinct-value string column.
	c := NewColumn(value.KindVarchar)
	for i := 0; i < 100000; i++ {
		_ = c.Append(value.NewString(fmt.Sprintf("sensor-name-with-long-id-%02d", i%20)))
	}
	c.Merge()
	rowBytes := int64(100000 * (len("sensor-name-with-long-id-00") + 16))
	ratio := float64(rowBytes) / float64(c.MemSize())
	if ratio < 10 {
		t.Fatalf("dictionary compression ratio %.1f < 10x", ratio)
	}
}

func TestGetRowOutOfRange(t *testing.T) {
	tbl := newTestTable()
	if _, err := tbl.Get(0); err == nil {
		t.Fatal("empty table Get must error")
	}
	_, _ = tbl.Append(value.Row{value.NewInt(1), value.NewString("a"), value.NewDouble(0)})
	if _, err := tbl.Get(1); err == nil {
		t.Fatal("out of range Get must error")
	}
	row, err := tbl.Get(0)
	if err != nil || row[0].Int() != 1 {
		t.Fatal("valid Get failed")
	}
}

func TestTruncate(t *testing.T) {
	tbl := newTestTable()
	_, _ = tbl.Append(value.Row{value.NewInt(1), value.NewString("a"), value.NewDouble(0)})
	tbl.Truncate()
	if tbl.NumRows() != 0 {
		t.Fatal("truncate")
	}
}

// A batch read of a row range may start anywhere in the delta fragment, also
// beyond its first rows, or straddle the main/delta boundary: every NULL of
// the range must land at its offset from the range start. (A range starting
// inside the delta used to index the validity bitmap from the fragment's
// start and panic.)
func TestReadBatchNullsAtAnyOffset(t *testing.T) {
	schema := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "f", Kind: value.KindDouble},
	)
	tbl := NewTable(schema)
	tbl.AutoMergeThreshold = 0
	const n = 300
	for i := 0; i < n; i++ {
		row := value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("s%d", i%4)), value.NewDouble(float64(i))}
		if i%7 == 0 {
			row[i%3] = value.Null
		}
		if _, err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
		if i == 99 {
			tbl.Merge() // rows 0..99 in main, the rest stay in the delta
		}
	}
	for _, rg := range [][2]int{{0, 100}, {64, 200}, {100, 300}, {130, 190}, {250, 300}} {
		b := tbl.ReadBatch(rg[0], rg[1], nil)
		for i := rg[0]; i < rg[1]; i++ {
			want, _ := tbl.Get(i)
			for c := range want {
				if got := b.Cols[c].Value(i - rg[0]); got != want[c] {
					t.Fatalf("rows [%d, %d): row %d column %d = %v, want %v", rg[0], rg[1], i, c, got, want[c])
				}
			}
		}
	}
}

// fillNulls copies validity a word at a time; the bitmap it builds must be
// the one the per-row loop over bitmap.get built, bit for bit, for NULLs on
// word edges, ranges starting mid-word and ranges straddling main and delta.
func TestFillNullsMatchesPerBitLoop(t *testing.T) {
	perBit := func(c *Column, lo, hi int) []uint64 {
		var v value.Vec
		for i := lo; i < hi; i++ {
			null := false
			if i < c.mainN {
				null = c.mainNulls.get(i)
			} else {
				null = c.deltaNulls.get(i - c.mainN)
			}
			if null {
				v.EnsureNulls(hi - lo)
				v.SetNull(i - lo)
			}
		}
		return v.Nulls
	}
	nulls := map[int]bool{0: true, 63: true, 64: true, 127: true, 128: true, 191: true, 200: true, 255: true, 256: true, 300: true, 319: true}
	for _, mainN := range []int{0, 64, 100, 192, 320} {
		c := NewColumn(value.KindInt)
		for i := 0; i < 320; i++ {
			x := value.NewInt(int64(i))
			if nulls[i] {
				x = value.Null
			}
			if err := c.Append(x); err != nil {
				t.Fatal(err)
			}
			if i+1 == mainN {
				c.Merge()
			}
		}
		for _, rg := range [][2]int{{0, 320}, {0, 1}, {1, 65}, {63, 65}, {64, 128}, {5, 300}, {99, 101}, {100, 257}, {191, 320}, {250, 250}, {301, 320}} {
			var v value.Vec
			c.fillNulls(rg[0], rg[1], &v)
			want := perBit(c, rg[0], rg[1])
			if fmt.Sprint(v.Nulls) != fmt.Sprint(want) {
				t.Fatalf("main %d, rows [%d, %d): bitmap %x, want %x", mainN, rg[0], rg[1], v.Nulls, want)
			}
		}
	}
}
