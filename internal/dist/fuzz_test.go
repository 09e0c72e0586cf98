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
	p := exec.NewAggPartial()
	p.Append(&exec.AggGroup{First: 3, Key: value.Row{value.NewString("g"), value.Null}, States: []*exec.AggState{
		{Count: 2, Sum: exactSum(14.5), SumI: 14, IntOnly: true, Min: value.NewInt(5), Max: value.NewDouble(9.5), SumSq: exactSum(115.25), HasVal: true},
		{Count: 1, HasVal: true, Distinct: true, Order: []value.Value{value.NewString("a")}},
		// Six partials (past the inline four), and non-finite totals.
		{Count: 6, Sum: exactSum(0x1p-1000, 0x1p-800, 0x1p-600, 0x1p-400, 0x1p-200, 1), SumSq: exactSum(math.Inf(1), 3), HasVal: true},
		{Count: 2, Sum: exactSum(math.Inf(1), math.Inf(-1)), HasVal: true},
	}})
	f.Add((&Chunk{Shard: 1, Worker: 2, Scanned: 77, Seqs: []int64{3, 9}, Rows: []value.Row{intRow(1, 2), intRow(3, 4)}, Partial: p}).Encode())
	f.Add((&Chunk{}).Encode())
	// Three sequences for one row: decoded once, and mergeStreams panicked.
	f.Add((&Chunk{Seqs: []int64{1, 2, 3}, Rows: []value.Row{intRow(7)}}).Encode())
	f.Add([]byte{chunkWireVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32-1 sequences, none present
	// One group whose sum claims 2^32-1 partials, none present.
	f.Add([]byte{chunkWireVersion, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 2, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeChunk(b)
		if err != nil {
			return
		}
		if len(c.Seqs) != len(c.Rows) || len(c.Rows) > len(b) {
			t.Fatalf("%d sequences and %d rows decoded from %d bytes", len(c.Seqs), len(c.Rows), len(b))
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
