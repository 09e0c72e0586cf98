package diskstore

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hana/internal/value"
)

// Chunk files are bytes from disk: on arbitrary input decodeChunk returns an
// error or a vector of exactly as many rows as the header declares, whose
// payload and null bitmap cover those rows and whose codes name dictionary
// entries; it never panics, and it never allocates for a count the remaining
// bytes cannot back.

// hostileChunks are inputs the decoder used to mishandle.
func hostileChunks(t testing.TB) map[string][]byte {
	enc := func(kind value.Kind, vals ...value.Value) []byte {
		data, err := encodeChunk(kind, vals)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// A row count of 2^62: makeslice panicked.
	huge := append([]byte{byte(value.KindInt)}, binary.AppendUvarint(nil, 1<<62)...)
	// Two rows, a dictionary of one entry, the second row's code is 1: index
	// out of range. The chunk ends in its one word of packed codes.
	code := enc(value.KindVarchar, value.NewString("a"), value.NewString("a"))
	code[len(code)-8] = 0b10 // one bit per code: 0, then 1
	// A DOUBLE payload and a FOR payload cut mid-value: the short read was
	// ignored and the chunk decoded without error.
	doubles := enc(value.KindDouble, value.NewDouble(1.5), value.NewDouble(2.5), value.NewDouble(3.5))
	ints := enc(value.KindInt, value.NewInt(1), value.NewInt(1<<40), value.NewInt(7))
	return map[string][]byte{
		"count 2^62":               huge,
		"dictionary code ≥ size":   code,
		"double cut mid-value":     doubles[:len(doubles)-3],
		"packed ints cut mid-word": ints[:len(ints)-3],
		"frame of reference cut":   ints[:14],
		"dictionary count 2^40":    append(enc(value.KindVarchar)[:3], binary.AppendUvarint(nil, 1<<40)...),
		"packed width 200":         append(enc(value.KindInt, value.NewInt(5))[:19], 200),
	}
}

func TestDecodeChunkRejectsHostileInput(t *testing.T) {
	for name, data := range hostileChunks(t) {
		if _, n, err := decodeChunk(data); err == nil {
			t.Errorf("%s: decoded %d values without error", name, n)
		}
	}
}

// The manifest says how many rows of which kind a chunk file holds; a file
// that decodes cleanly to something else must not reach a reader, which
// indexes the column by the manifest's count.
func TestReadChunkChecksFileAgainstManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = mkRow(i)
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	short, _ := encodeChunk(value.KindInt, []value.Value{value.NewInt(1), value.NewInt(2)})
	wrongKind, _ := encodeChunk(value.KindDate, make([]value.Value, 100))
	for name, data := range map[string][]byte{"2 rows for 100": short, "DATE for BIGINT": wrongKind} {
		if err := os.WriteFile(tbl.chunkFile(0, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := tbl.ReadBatch(0, 100, nil)
		if err == nil || !strings.Contains(err.Error(), "manifest says") {
			t.Errorf("%s: ReadBatch error = %v, want the manifest mismatch", name, err)
		}
		if err := tbl.Scan(nil, nil, func(int64, value.Row) bool { return true }); err == nil {
			t.Errorf("%s: Scan read the chunk without error", name)
		}
	}
}

func FuzzDecodeChunk(f *testing.F) {
	null := value.Null
	for _, seed := range []struct {
		kind value.Kind
		vals []value.Value
	}{
		{value.KindInt, []value.Value{value.NewInt(-5), null, value.NewInt(1 << 50), value.NewInt(3)}},
		{value.KindVarchar, []value.Value{value.NewString("a"), null, value.NewString(""), value.NewString("a"), value.NewString("bcd")}},
		{value.KindDouble, []value.Value{value.NewDouble(1.25), null, value.NewDouble(-0.0)}},
		{value.KindDate, []value.Value{value.NewDate(15000), value.NewDate(15001), null}},
		{value.KindTimestamp, []value.Value{value.NewTimestamp(1 << 40), null}},
		{value.KindBool, []value.Value{value.NewBool(true), value.NewBool(false), null}},
		{value.KindInt, nil},
		{value.KindVarchar, nil},
		{value.KindDouble, nil},
		{value.KindInt, []value.Value{value.NewInt(42)}},
		{value.KindVarchar, []value.Value{value.NewString("only")}},
		{value.KindDouble, []value.Value{null}},
		{value.KindInt, make([]value.Value, 200)}, // 200 NULLs in 4 bitmap words
	} {
		data, err := encodeChunk(seed.kind, seed.vals)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range hostileChunks(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := decodeChunk(data)
		if err != nil {
			return
		}
		declared, w := binary.Uvarint(data[1:])
		if w <= 0 || uint64(n) != declared {
			t.Fatalf("decoded %d values, the header declares %d", n, declared)
		}
		// Every row owns a bit of the null bitmap, so a byte backs 8 at most.
		if n > 8*len(data) {
			t.Fatalf("%d values decoded from %d bytes", n, len(data))
		}
		kind := value.Kind(data[0])
		if v.Kind != kind || v.Vals != nil || v.Strs != nil || v.Sorted {
			t.Fatalf("a %v chunk decoded to %+v", kind, v)
		}
		if payload := len(v.Ints) + len(v.Floats) + len(v.Codes); payload != n {
			t.Fatalf("payload of %d rows for %d values", payload, n)
		}
		if v.Nulls != nil && len(v.Nulls) != (n+63)/64 {
			t.Fatalf("null bitmap of %d words for %d values", len(v.Nulls), n)
		}
		for i, c := range v.Codes {
			if int(c) >= len(v.Dict) {
				t.Fatalf("row %d: code %d outside a dictionary of %d", i, c, len(v.Dict))
			}
		}
		vals := make([]value.Value, n)
		for i := range vals {
			if vals[i] = v.Value(i); !vals[i].IsNull() && vals[i].K != kind {
				t.Fatalf("value %d has kind %v in a %v chunk", i, vals[i].K, kind)
			}
		}
		again, err := encodeChunk(kind, vals)
		if err != nil {
			t.Fatalf("decoded chunk does not re-encode: %v", err)
		}
		back, m, err := decodeChunk(again)
		if err != nil || m != n {
			t.Fatalf("re-encoded chunk decodes to %d values, %v", m, err)
		}
		for i := range vals {
			if got := back.Value(i); !sameBits(got, vals[i]) {
				t.Fatalf("value %d is %v after a re-encode, was %v", i, got, vals[i])
			}
		}
	})
}

// A manifest is bytes from disk too: Open rejects one that readers could not
// index by, and a table Open accepts serves every zone-pruned span with rows
// or an error.

// manifestStore builds a store holding table t: two chunks (4096 and 4
// rows). It returns the directory and t's manifest.
func manifestStore(t testing.TB) (string, manifest) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 4100)
	for i := range rows {
		rows[i] = mkRow(i)
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, "t", "manifest.json"))
	if err == nil {
		err = json.Unmarshal(data, &m)
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir, m
}

// hostileManifests are edits of a valid manifest that Open must reject.
func hostileManifests(m manifest) map[string]manifest {
	edit := func(f func(m *manifest)) manifest {
		c := m
		c.ChunkRows = append([]int(nil), m.ChunkRows...)
		c.Zones = append([][]zone(nil), m.Zones...)
		f(&c)
		return c
	}
	return map[string]manifest{
		// Spans indexed zones[0] of an empty list: index out of range.
		"chunk without zones":  edit(func(m *manifest) { m.ChunkRows, m.Zones = []int{3}, [][]zone{} }),
		"zone row too narrow":  edit(func(m *manifest) { m.Zones[1] = m.Zones[1][:2] }),
		"negative chunk rows":  edit(func(m *manifest) { m.ChunkRows[1] = -4 }),
		"negative chunk size":  edit(func(m *manifest) { m.ChunkSize = -1 }),
		"no columns":           edit(func(m *manifest) { m.Cols, m.Zones = nil, [][]zone{{}, {}} }),
		"row count overflows":  edit(func(m *manifest) { m.ChunkRows = []int{math.MaxInt64, 1} }),
		"more zones than rows": edit(func(m *manifest) { m.Zones = append(m.Zones, m.Zones[0]) }),
	}
}

func TestOpenRejectsHostileManifests(t *testing.T) {
	dir, m := manifestStore(t)
	path := filepath.Join(dir, "t", "manifest.json")
	for name, hm := range hostileManifests(m) {
		data, err := json.Marshal(&hm)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("%s: Open accepted the manifest", name)
		}
	}
}

func FuzzLoadManifest(f *testing.F) {
	dir, m := manifestStore(f)
	seeds := hostileManifests(m)
	seeds["valid"] = m
	// Well-formed, but the second chunk's files hold 4 rows, not 400.
	long := m
	long.ChunkRows = []int{m.ChunkRows[0], 400}
	seeds["chunk longer than its files"] = long
	for _, sm := range seeds {
		data, err := json.Marshal(&sm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	path := filepath.Join(dir, "t", "manifest.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		tbl, ok := s.Table("t")
		if !ok {
			t.Fatal("Open loaded the store without table t")
		}
		// A NULL lower bound skips no chunk but reads every zone.
		null := value.Null
		ranges := map[int]Range{}
		for i := range tbl.Schema().Cols {
			ranges[i] = Range{Lo: &null}
		}
		for _, sp := range tbl.Spans(ranges) {
			_, _ = tbl.ReadBatch(sp.Lo, sp.Hi, nil)
		}
	})
}
