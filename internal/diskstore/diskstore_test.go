package diskstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"hana/internal/value"
)

func testSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "name", Kind: value.KindVarchar},
		value.Column{Name: "amount", Kind: value.KindDouble},
		value.Column{Name: "d", Kind: value.KindDate},
	)
}

func mkRow(i int) value.Row {
	return value.Row{
		value.NewInt(int64(i)),
		value.NewString(fmt.Sprintf("name-%d", i%7)),
		value.NewDouble(float64(i) * 1.25),
		value.NewDate(int64(10000 + i)),
	}
}

func TestChunkCodecRoundTrip(t *testing.T) {
	for _, kind := range []value.Kind{value.KindInt, value.KindVarchar, value.KindDouble, value.KindDate, value.KindBool} {
		var vals []value.Value
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			if i%13 == 0 {
				vals = append(vals, value.Null)
				continue
			}
			switch kind {
			case value.KindInt:
				vals = append(vals, value.NewInt(rng.Int63n(1e6)-5e5))
			case value.KindVarchar:
				vals = append(vals, value.NewString(fmt.Sprintf("s%d", rng.Intn(40))))
			case value.KindDouble:
				vals = append(vals, value.NewDouble(rng.NormFloat64()*100))
			case value.KindDate:
				vals = append(vals, value.NewDate(int64(9000+rng.Intn(3000))))
			case value.KindBool:
				vals = append(vals, value.NewBool(rng.Intn(2) == 0))
			}
		}
		data, err := encodeChunk(kind, vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBoxed(data)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("%v: len %d want %d", kind, len(got), len(vals))
		}
		for i := range vals {
			if vals[i].IsNull() != got[i].IsNull() {
				t.Fatalf("%v: null mismatch at %d", kind, i)
			}
			if !vals[i].IsNull() && value.Compare(vals[i], got[i]) != 0 {
				t.Fatalf("%v: value mismatch at %d: %v != %v", kind, i, vals[i], got[i])
			}
		}
	}
}

func TestChunkCodecIntProperty(t *testing.T) {
	f := func(ints []int64) bool {
		vals := make([]value.Value, len(ints))
		for i, x := range ints {
			vals[i] = value.NewInt(x)
		}
		data, err := encodeChunk(value.KindInt, vals)
		if err != nil {
			return false
		}
		got, err := decodeBoxed(data)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i].I != vals[i].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkCodecStringProperty(t *testing.T) {
	f := func(ss []string) bool {
		vals := make([]value.Value, len(ss))
		for i, x := range ss {
			vals[i] = value.NewString(x)
		}
		data, err := encodeChunk(value.KindVarchar, vals)
		if err != nil {
			return false
		}
		got, err := decodeBoxed(data)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i].S != vals[i].S {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoreCreateLoadScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("psa", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, mkRow(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 10000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Scan everything and verify order.
	n := 0
	err = tbl.Scan(nil, nil, func(id int64, row value.Row) bool {
		if row[0].Int() != int64(n) {
			t.Fatalf("row %d id %d mismatch", n, row[0].Int())
		}
		n++
		return true
	})
	if err != nil || n != 10000 {
		t.Fatalf("scan: %v n=%d", err, n)
	}
}

func TestStoreReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("archive", testSchema())
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, mkRow(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	// Reopen from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, ok := s2.Table("ARCHIVE")
	if !ok {
		t.Fatal("table not reloaded")
	}
	if tbl2.NumRows() != 100 {
		t.Fatalf("reloaded rows = %d", tbl2.NumRows())
	}
	b, err := tbl2.ReadBatch(42, 43, nil)
	if err != nil || b.Cols[0].Value(0).Int() != 42 || b.Cols[1].Value(0).String() != "name-0" {
		t.Fatalf("row 42 after reload: %v %v", b, err)
	}
	if tbl2.Schema().Len() != 4 {
		t.Fatal("schema not persisted")
	}
}

func TestZoneMapSkipping(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("facts", testSchema())
	tbl.chunkSize = 1000
	var rows []value.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, mkRow(i)) // id strictly increasing → perfect zones
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	lo := value.NewInt(9500)
	count := 0
	err := tbl.Scan([]int{0}, map[int]Range{0: {Lo: &lo}}, func(id int64, row value.Row) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scan visits the matching chunk (rows 9000..9999); the filter itself is
	// applied by the caller, so count is chunk-granular.
	if count != 1000 {
		t.Fatalf("visited %d rows, want 1000 (one chunk)", count)
	}
	if s.Stats.ChunksSkipped.Load() < 9 {
		t.Fatalf("skipped %d chunks, want >= 9", s.Stats.ChunksSkipped.Load())
	}
}

func TestBufferCacheHits(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("t", testSchema())
	var rows []value.Row
	for i := 0; i < 100; i++ {
		rows = append(rows, mkRow(i))
	}
	_ = tbl.BulkLoad(rows)
	_ = tbl.Scan(nil, nil, func(int64, value.Row) bool { return true })
	before := s.Stats.CacheHits.Load()
	_ = tbl.Scan(nil, nil, func(int64, value.Row) bool { return true })
	if s.Stats.CacheHits.Load() <= before {
		t.Fatal("second scan should hit the buffer cache")
	}
}

func TestUnflushedRowsVisible(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("t", testSchema())
	for i := 0; i < 5; i++ {
		if err := tbl.Append(mkRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	_ = tbl.Scan(nil, nil, func(int64, value.Row) bool { count++; return true })
	if count != 5 {
		t.Fatalf("unflushed rows not visible: %d", count)
	}
	// Flush persists the tail; with nothing buffered it writes nothing, not
	// even the manifest.
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	mf := filepath.Join(dir, "t", "manifest.json")
	if err := os.Remove(mf); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mf); !os.IsNotExist(err) {
		t.Fatalf("an empty flush wrote the manifest: %v", err)
	}
	if err := tbl.Append(mkRow(5)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl2, _ := s2.Table("t")
	if tbl2.NumRows() != 6 {
		t.Fatalf("after reopen: %d rows stored, want 6", tbl2.NumRows())
	}
}

func TestCompressionOnDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable("t", value.NewSchema(value.Column{Name: "v", Kind: value.KindVarchar}))
	var rows []value.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, value.Row{value.NewString(fmt.Sprintf("a-very-long-repetitive-string-%d", i%8))})
	}
	_ = tbl.BulkLoad(rows)
	size, err := tbl.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(20000 * len("a-very-long-repetitive-string-0"))
	if size >= raw/5 {
		t.Fatalf("dictionary compression ineffective: disk=%d raw=%d", size, raw)
	}
}

func TestDropTable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_, _ = s.CreateTable("gone", testSchema())
	if err := s.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Table("gone"); ok {
		t.Fatal("table still present")
	}
	if err := s.DropTable("gone"); err == nil {
		t.Fatal("double drop must error")
	}
	s2, _ := Open(dir)
	if _, ok := s2.Table("gone"); ok {
		t.Fatal("dropped table reappeared after reopen")
	}
}

func TestDuplicateCreate(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	_, _ = s.CreateTable("t", testSchema())
	if _, err := s.CreateTable("T", testSchema()); err == nil {
		t.Fatal("case-insensitive duplicate create must error")
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newChunkCache(2)
	c.put(cacheKey{"A", 0, 0}, &value.Vec{Kind: value.KindInt, Ints: []int64{1}})
	c.put(cacheKey{"A", 1, 0}, &value.Vec{Kind: value.KindInt, Ints: []int64{2}})
	c.put(cacheKey{"A", 2, 0}, &value.Vec{Kind: value.KindInt, Ints: []int64{3}}) // evicts chunk 0
	if _, ok := c.get(cacheKey{"A", 0, 0}); ok {
		t.Fatal("LRU eviction failed")
	}
	if v, ok := c.get(cacheKey{"A", 2, 0}); !ok || v.Ints[0] != 3 {
		t.Fatal("recent entry evicted")
	}
	c.dropTable("a")
	if _, ok := c.get(cacheKey{"A", 2, 0}); ok {
		t.Fatal("dropTable must evict all")
	}
}
