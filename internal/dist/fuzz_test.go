package dist

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"hana/internal/exec"
	"hana/internal/value"
)

// The two wire decoders take bytes from another node: on arbitrary input
// they return a value or an error — never panic, and never size an
// allocation from a length field the payload does not back, which the
// element-count bounds below check (every element costs at least one byte).
// What decodes must re-encode to bytes that decode to the same encoding.

// exactSum adds xs, in order, into an exact sum.
func exactSum(xs ...float64) (s exec.ExactSum) {
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func FuzzDecodeChunk(f *testing.F) {
	p := &exec.AggPartial{}
	p.Append(&exec.AggGroup{First: 3, Key: value.Row{value.NewString("g"), value.Null}, States: []*exec.AggState{
		{Count: 2, Sum: exactSum(14.5), SumI: 14, IntOnly: true, Min: value.NewInt(5), Max: value.NewDouble(9.5), SumSq: exactSum(115.25), HasVal: true},
		{Count: 1, HasVal: true, Distinct: true, Order: []value.Value{value.NewString("a")}},
		// Six partials (past the inline four), and non-finite totals.
		{Count: 6, Sum: exactSum(0x1p-1000, 0x1p-800, 0x1p-600, 0x1p-400, 0x1p-200, 1), SumSq: exactSum(math.Inf(1), 3), HasVal: true},
		{Count: 2, Sum: exactSum(math.Inf(1), math.Inf(-1)), HasVal: true},
	}})
	// A join chunk: a probe row's two matches share its sequence, and a
	// null-extended build column.
	ints := value.NewSchema(value.Column{Name: "L.K", Kind: value.KindInt}, value.Column{Name: "R.V", Kind: value.KindInt})
	join := value.BatchFromRows(ints, []value.Row{intRow(1, 2), intRow(1, 4), {value.NewInt(3), value.Null}}, nil)
	f.Add((&Chunk{Shard: 1, Worker: 2, Scanned: 77, Seqs: []int64{3, 3, 9}, Batch: join, Partial: p}).Encode())
	f.Add((&Chunk{}).Encode())
	// Three sequences for a batch of one row: the merge would index past it.
	f.Add((&Chunk{Seqs: []int64{1, 2, 3}, Batch: value.BatchFromRows(ints, []value.Row{intRow(7, 8)}, nil)}).Encode())
	f.Add([]byte{chunkWireVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32-1 sequences, none present
	// One group whose sum claims 2^32-1 partials, none present.
	f.Add([]byte{chunkWireVersion, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// Scan chunks: every column form, NULLs on word edges, a pruned and a
	// boxed column, through a selection; the same shape with no rows; and
	// the hostile batches DecodeChunk must reject.
	b, seqs := scanSeedBatch()
	f.Add((&Chunk{Shard: 1, Worker: 1, Scanned: 130, Seqs: seqs, Batch: b}).Encode())
	b.Sel = []int32{}
	f.Add((&Chunk{Scanned: 130, Batch: b}).Encode())
	for _, bad := range hostileBatchChunks() {
		f.Add(bad.bytes)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeChunk(b)
		if err != nil {
			return
		}
		rows := 0
		if c.Batch != nil {
			rows = c.Batch.Len()
			checkDecodedBatch(t, c.Batch, len(c.Seqs), len(b))
		}
		if len(c.Seqs) != rows || rows > len(b) {
			t.Fatalf("%d sequences and %d rows decoded from %d bytes", len(c.Seqs), rows, len(b))
		}
		if c.Partial != nil && len(c.Partial.Groups) > len(b) {
			t.Fatalf("%d groups decoded from %d bytes", len(c.Partial.Groups), len(b))
		}
		enc := c.Encode()
		again, err := DecodeChunk(enc)
		if err != nil {
			t.Fatalf("re-encoded chunk does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("re-encoding is not stable:\n%+v\n%+v", c, again)
		}
	})
}

// scanSeedBatch is a scan morsel's batch of 130 rows, 66 of them selected
// (bits 0, 63, 64, 65 and 127 among them), with every column form: integers
// with NULLs on word edges, a double, sorted-dictionary, unsorted-dictionary
// and plain VARCHAR, a pruned column and a boxed one. It returns the batch
// and sequences for its live rows.
func scanSeedBatch() (*value.Batch, []int64) {
	const n = 130
	b := &value.Batch{N: n, Cols: []value.Vec{
		{Kind: value.KindInt, Ints: make([]int64, n)},
		{Kind: value.KindDouble, Floats: make([]float64, n)},
		{Kind: value.KindVarchar, Codes: make([]uint32, n), Dict: []string{"", "AIR", "MAIL", "SHIP", "TRUCK"}, Sorted: true},
		{Kind: value.KindVarchar, Codes: make([]uint32, n), Dict: []string{"z", "a", "m"}},
		{Kind: value.KindVarchar, Strs: make([]string, n)},
		{Kind: value.KindDate, Pruned: true},
		{Kind: value.KindInt, Vals: make([]value.Value, n)},
	}}
	for i := 0; i < n; i++ {
		b.Cols[0].Ints[i] = int64(i) - 64
		b.Cols[1].Floats[i] = float64(i) / 3
		b.Cols[2].Codes[i] = uint32(1 + i%3) // TRUCK is never used
		b.Cols[3].Codes[i] = uint32(i % 3)
		b.Cols[4].Strs[i] = strings.Repeat("x", i%5)
		b.Cols[6].Vals[i] = value.NewInt(int64(i))
		if i%4 == 0 {
			b.Cols[6].Vals[i] = value.NewString("boxed")
		}
	}
	for _, i := range []int{0, 63, 64, 127} {
		for c := 0; c < 5; c++ {
			b.Cols[c].EnsureNulls(n)
			b.Cols[c].SetNull(i)
		}
		b.Cols[6].Vals[i] = value.Null
	}
	var seqs []int64
	for i := 0; i < n; i++ {
		if i%2 == 0 || i == 63 || i == 65 || i == 127 {
			b.Sel = append(b.Sel, int32(i))
			seqs = append(seqs, int64(10*i))
		}
	}
	return b, seqs
}

// hostileBatch is a scan chunk DecodeChunk must reject, and the error it
// must name.
type hostileBatch struct {
	name, err string
	bytes     []byte
}

// hostileBatchChunks builds one-sequence scan chunks that each break one
// rule of the batch layout.
func hostileBatchChunks() []hostileBatch {
	head := []byte{chunkWireVersion, 0, 0, 0, 1, 2, 1} // one sequence (1), then a batch
	chunk := func(batch ...byte) []byte {
		return append(append(append([]byte{}, head...), batch...), 0)
	}
	word := []byte{7, 0, 0, 0, 0, 0, 0, 0}
	intCol := append([]byte{formInts, 1, 0}, word...)
	return []hostileBatch{
		{"code past its dictionary", "code 5 outside a dictionary of 1",
			chunk(1, byte(value.KindVarchar), 1, 1, formDict, 1, 0, 1, 1, 'a', 5)},
		{"column longer than the sequences", "2 rows for 1 sequences",
			chunk(append([]byte{1, byte(value.KindInt), 1, 1, formInts, 2, 0}, append(word, word...)...)...)},
		{"mask wider than the columns", "needed mask of 2 columns over 1 columns",
			chunk(append([]byte{1, byte(value.KindInt), 2, 1, 1}, intCol...)...)},
		{"mask narrower than the columns", "needed mask of 1 columns over 2 columns",
			chunk(append([]byte{2, byte(value.KindInt), byte(value.KindInt), 1, 1}, intCol...)...)},
		{"column count the payload cannot back", "columns claimed",
			chunk(0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"string lengths the payload cannot back", "string 0 of",
			chunk(1, byte(value.KindVarchar), 1, 1, formStrs, 1, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"integers the payload cannot back", "truncated bytes",
			chunk(1, byte(value.KindInt), 1, 1, formInts, 1, 0, 7)},
		{"dictionary form on an integer column", "does not carry BIGINT",
			chunk(1, byte(value.KindInt), 1, 1, formDict, 1, 0, 1, 1, 'a', 0)},
		{"unsorted dictionary flagged sorted", "is not above",
			chunk(1, byte(value.KindVarchar), 1, 1, formSortedDict, 1, 0, 2, 1, 1, 'b', 'a', 0)},
	}
}

// checkDecodedBatch asserts what DecodeChunk promises of a batch: every
// shipped column holds exactly rows entries of its kind's payload, no more
// columns than bytes, codes inside the dictionary — so every row boxes.
func checkDecodedBatch(t *testing.T, b *value.Batch, rows, size int) {
	t.Helper()
	if b.Len() != rows || len(b.Cols) > size {
		t.Fatalf("batch of %d rows, %d columns for %d sequences from %d bytes", b.Len(), len(b.Cols), rows, size)
	}
	for c := range b.Cols {
		v := &b.Cols[c]
		if v.Pruned {
			continue
		}
		n := max(len(v.Ints), len(v.Floats), len(v.Codes), len(v.Strs), len(v.Vals))
		if rows > 0 && n != rows {
			t.Fatalf("column %d holds %d entries for %d rows", c, n, rows)
		}
		for _, code := range v.Codes {
			if int(code) >= len(v.Dict) {
				t.Fatalf("column %d: code %d outside a dictionary of %d", c, code, len(v.Dict))
			}
		}
	}
	row := make(value.Row, len(b.Cols))
	for k := 0; k < b.Len(); k++ {
		b.FillRow(b.RowIndex(k), row)
	}
}

func FuzzDecodeFragment(f *testing.F) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprint(i * 7)
	}
	f.Add((&Fragment{Query: 9, Shard: 1, Snapshot: 42, Width: 4, Table: "ORDERS", Binding: "o",
		Where: "(o_orderkey IN (" + strings.Join(keys, ", ") + "))"}).Encode())
	f.Add((&Fragment{Table: "T", Needed: []bool{true, false}, Agg: &AggFragment{GroupBy: []string{"g"}, Aggs: []AggCall{{Func: "COUNT"}, {Func: "SUM", Arg: "a", Distinct: true}}}}).Encode())
	f.Add((&Fragment{Table: "T", Where: "(a > 1)", Join: &JoinFragment{
		ProbeKeys: []string{"a"}, BuildKeys: []string{"k"}, Residual: "(a <> v)",
		BuildCols: []value.Column{{Name: "k", Kind: value.KindInt}, {Name: "v", Kind: value.KindVarchar, Nullable: true}},
		BuildRows: []value.Row{{value.NewInt(1), value.NewString("x")}, {value.NewInt(2), value.Null}},
	}}).Encode())
	f.Add([]byte{fragmentWireVersion, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a 4 GiB Where, none present
	f.Add([]byte{fragmentWireVersion, 0, 0, 0, 0, 0, 0, 0, 5, 1})                      // a needed mask of 5 columns, 1 present
	// A group-by count past MaxInt64, negative as an int.
	f.Add([]byte("\x020000\x010\a0000000\x00\x000\x85\x85\x85\x85\x85\x85\xfd\xfd\xfd\x01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFragment(b)
		if err != nil {
			return
		}
		if n := len(fr.Table) + len(fr.Binding) + len(fr.Where) + len(fr.Needed); n > len(b) {
			t.Fatalf("%d string and mask bytes decoded from %d bytes", n, len(b))
		}
		if a := fr.Agg; a != nil && len(a.GroupBy)+len(a.Aggs) > len(b) {
			t.Fatalf("%d aggregate elements decoded from %d bytes", len(a.GroupBy)+len(a.Aggs), len(b))
		}
		if j := fr.Join; j != nil && len(j.ProbeKeys)+len(j.BuildKeys)+len(j.BuildCols)+len(j.BuildRows) > len(b) {
			t.Fatalf("%d join elements decoded from %d bytes", len(j.ProbeKeys)+len(j.BuildKeys)+len(j.BuildCols)+len(j.BuildRows), len(b))
		}
		enc := fr.Encode()
		again, err := DecodeFragment(enc)
		if err != nil {
			t.Fatalf("re-encoded fragment does not decode: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("re-encoding is not stable:\n%+v\n%+v", fr, again)
		}
	})
}
