package dist

import (
	"encoding/hex"
	"math"
	"testing"

	"hana/internal/exec"
	"hana/internal/value"
)

// TestAggregateChunkBytesArePinned fixes the bytes of wire version 5 for an
// aggregate chunk: an integer state, a float sum of six partials, a NaN sum,
// DATE bounds and a DISTINCT state. The state codec is shared with Hive's
// shuffle (exec.AppendAggState); a change to it that moves one byte here
// needs a new chunkWireVersion.
func TestAggregateChunkBytesArePinned(t *testing.T) {
	states := []*exec.AggState{
		{Count: 3, Sum: exactSum(1, 2, 3), SumI: 6, IntOnly: true, Min: value.NewInt(1), Max: value.NewInt(3), HasVal: true},
		{Count: 6, Sum: exactSum(0x1p-1000, 0x1p-800, 0x1p-600, 0x1p-400, 0x1p-200, 1), SumSq: exactSum(1e16, 1, -1e16, 0.5), HasVal: true},
		{Count: 1, Sum: exactSum(math.NaN()), Min: value.NewDouble(math.NaN()), HasVal: true},
		{Count: 2, IntOnly: true, Min: value.NewDate(9000), Max: value.NewDate(9500), HasVal: true},
		{Count: 2, HasVal: true, Distinct: true, Order: []value.Value{value.NewString("a"), value.NewInt(7)}},
	}
	p := &exec.AggPartial{}
	p.Append(&exec.AggGroup{First: 5, Key: value.Row{value.NewInt(42), value.NewString("k")}, States: states})
	ch := &Chunk{Shard: 1, Scanned: 12, Partial: p}
	// Captured before the state codec moved out of this package; versions 4
	// and 5 moved only the leading version byte.
	const want = "0501000c000001010a02025404016b05060100000000000018400c0102020206000100000c060000000000007001000000000000f00d000000000000701a000000000000f0260000000000007033000" +
		"000000000f03f0000000001000000000000f83f0100000201010000000000f87f000003010000000000f87f00000100000400000105d08c0105b894010001000004000000000000010102040161020e"
	if got := hex.EncodeToString(ch.Encode()); got != want {
		t.Fatalf("aggregate chunk bytes moved:\n got %s\nwant %s", got, want)
	}
	if _, err := DecodeChunk(ch.Encode()); err != nil {
		t.Fatal(err)
	}
}

// TestScanChunkBytesArePinned fixes the bytes of wire version 5 for a scan
// chunk: two of three rows selected, a BIGINT column with a NULL, a DOUBLE,
// a sorted-dictionary VARCHAR that ships two of its three entries, and a
// pruned DATE column. A change that moves one byte here needs a new
// chunkWireVersion.
func TestScanChunkBytesArePinned(t *testing.T) {
	b := &value.Batch{N: 3, Sel: []int32{0, 2}, Cols: []value.Vec{
		{Kind: value.KindInt, Ints: []int64{5, 6, -1}, Nulls: []uint64{0b100}},
		{Kind: value.KindDouble, Floats: []float64{0.5, 1, 2.25}},
		{Kind: value.KindVarchar, Codes: []uint32{2, 0, 1}, Dict: []string{"a", "b", "c"}, Sorted: true},
		{Kind: value.KindDate, Pruned: true},
	}}
	ch := &Chunk{Shard: 1, Scanned: 3, Seqs: []int64{4, 9}, Batch: b}
	// Version 5 moved the version byte and the batch flag (a body tag of 2
	// in version 4).
	const want = "05010003020812010402030405040101010001020102000000000000000500000000000000ffffffffffffffff020200000000000000e03f00000000000002400402000201016263010000"
	if got := hex.EncodeToString(ch.Encode()); got != want {
		t.Fatalf("scan chunk bytes moved:\n got %s\nwant %s", got, want)
	}
	if _, err := DecodeChunk(ch.Encode()); err != nil {
		t.Fatal(err)
	}
}
