package hive

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hana/internal/exec"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// FuzzReadRecords feeds bytes through the pair reader every Hive file goes
// through, then reads each pair as what it may be: a row of a fixed schema
// (DecodeRow), a group key of that schema's kinds (decodeKey) and an
// aggregate partial (exec.DecodeAggState). Each returns a value or an error,
// never panics, and a value it accepts re-encodes to bytes that decode and
// encode again to the same bytes. Encodings compare as bytes, so a NaN
// compares by its bit pattern.
//
// DecodeRow is held against the wire codec's own row decoder
// (value.DecodeRow) with the schema's kind rule applied by hand. Each row is
// also read as a stage reads it, through the batch reader under keep and
// need masks taken from the pair's key, once on its own and once with every
// row of the file in one batch under the first pair's masks: the reader
// must accept exactly the records DecodeRow accepts, build the needed
// columns as DecodeRow does and leave the rest pruned, and the projected
// record of each row must decode, under the kept columns, to the kept
// fields of the row.
func FuzzReadRecords(f *testing.F) {
	schema := value.NewSchema(
		value.Column{Name: "i", Kind: value.KindInt},
		value.Column{Name: "d", Kind: value.KindDouble},
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "t", Kind: value.KindDate},
		value.Column{Name: "b", Kind: value.KindBool},
	)
	file := func(pairs ...string) []byte {
		buf := []byte(mapreduce.RecordHeader)
		for i := 0; i+1 < len(pairs); i += 2 {
			buf = mapreduce.AppendRecord(buf, pairs[i], pairs[i+1])
		}
		return buf
	}
	sum := func(xs ...float64) (s exec.ExactSum) {
		for _, x := range xs {
			s.Add(x)
		}
		return s
	}
	key := EncodeKey(value.Row{value.NewInt(7), value.NewDouble(-0.5), value.NewString("k\x01"), value.NewDate(16517), value.Null})
	for _, st := range []*exec.AggState{
		{Count: 2, Sum: sum(14.5), SumI: 14, IntOnly: true, HasVal: true, Min: value.NewInt(5), Max: value.NewDouble(9.5), SumSq: sum(115.25)},
		{Count: 1, Sum: sum(math.NaN()), HasVal: true, Min: value.NewDate(16517), Max: value.NewTimestamp(1427068800000000)},
		{Count: 3, HasVal: true, Min: value.NewBool(false), Max: value.NewString("zeta"), SumSq: sum(math.Inf(-1))},
		{Min: value.Null, Max: value.NewDouble(math.Copysign(0, -1))},
		// Six partials (past the inline four) and cancelling ones.
		{Count: 6, Sum: sum(0x1p-1000, 0x1p-800, 0x1p-600, 0x1p-400, 0x1p-200, 1), SumSq: sum(1e16, 1, -1e16, 0.5), HasVal: true},
	} {
		f.Add(file(key, string(exec.AppendAggState(nil, st))))
	}
	f.Add(file("", EncodeRow(value.Row{value.NewInt(-3), value.NewInt(2), value.NewString("a\tb"), value.Null, value.NewBool(true)})))
	// A key whose first two bytes keep columns 0, 2, 4 and build 0 and 2.
	f.Add(file("\x15\x05", EncodeRow(value.Row{value.NewInt(9), value.Null, value.NewString("kept"), value.NewDate(1), value.NewBool(false)})))
	f.Add([]byte(mapreduce.RecordHeader))
	f.Add([]byte("1\t2.5\tx\t2015-03-23\ttrue\n\\N\t\\N\t\\N\t\\N\t\\N\n"))
	f.Add(append([]byte(mapreduce.RecordHeader), 0x80))           // a truncated varint
	f.Add(append([]byte(mapreduce.RecordHeader), 0, 9, 'a', 'b')) // a value longer than the bytes left
	long := binary.AppendUvarint(binary.AppendVarint(nil, 1), exec.MaxPartials+1)
	f.Add(file("", string(append(long, make([]byte, 8*(exec.MaxPartials+1))...))))
	// Four rows read as one batch under the first key's masks (keep 0, 1,
	// 2, 4; build 1 and 2): an INTEGER widening into the DOUBLE column, NULLs
	// in built and unbuilt columns; then the same rows and one with a
	// VARCHAR in the DATE column, which fails the batch.
	good := []string{"\x17\x06", EncodeRow(value.Row{value.NewInt(1), value.NewInt(2), value.NewString("x"), value.NewDate(3), value.NewBool(true)}),
		"", EncodeRow(value.Row{value.Null, value.NewDouble(math.Copysign(0, -1)), value.Null, value.Null, value.Null}),
		"", EncodeRow(value.Row{value.NewInt(5), value.Null, value.NewString(""), value.NewDate(-1), value.NewBool(false)}),
		"", EncodeRow(value.Row{value.NewInt(7), value.NewDouble(0.1), value.NewString("w"), value.NewDate(9), value.NewBool(true)})}
	f.Add(file(good...))
	f.Add(file(append(good, "", EncodeRow(value.Row{value.NewInt(6), value.NewDouble(1), value.NewString("y"), value.NewString("z"), value.Null}))...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var masks, recs []string
		var rows []value.Row
		var rowsErr error
		_ = mapreduce.ScanPairs(string(data), func(k, v string) error {
			row, err := DecodeRow(v, schema)
			if err == nil {
				enc := EncodeRow(row)
				again, err := DecodeRow(enc, schema)
				if err != nil || EncodeRow(again) != enc {
					t.Fatalf("row %q re-encodes unstably: %v", enc, err)
				}
			}
			checkAgainstWireCodec(t, schema, v, row, err)
			checkMaskedRead(t, schema, k, []string{v}, []value.Row{row}, err)
			masks, recs, rows = append(masks, k), append(recs, v), append(rows, row)
			if rowsErr == nil {
				rowsErr = err
			}
			if vals, err := decodeKey(k, schema.Cols); err == nil {
				enc := EncodeKey(vals)
				again, err := decodeKey(enc, schema.Cols)
				if err != nil || EncodeKey(again) != enc {
					t.Fatalf("key %q re-encodes unstably: %v", enc, err)
				}
			}
			if st, _, err := exec.DecodeAggState([]byte(v)); err == nil {
				enc := exec.AppendAggState(nil, &st)
				again, n, err := exec.DecodeAggState(enc)
				if err != nil || n != len(enc) || !bytes.Equal(exec.AppendAggState(nil, &again), enc) {
					t.Fatalf("state %x re-encodes unstably: %v", enc, err)
				}
			}
			return nil
		})
		if len(recs) > 1 {
			checkMaskedRead(t, schema, masks[0], recs, rows, rowsErr)
		}
	})
}

// checkAgainstWireCodec holds DecodeRow's row and error for rec against
// value.DecodeRow's, with a NULL or the column's kind required of each
// value and an INTEGER widened into a DOUBLE column.
func checkAgainstWireCodec(t *testing.T, schema *value.Schema, rec string, row value.Row, rowErr error) {
	t.Helper()
	ref, n, err := value.DecodeRow([]byte(rec))
	ok := err == nil && n == len(rec) && len(ref) == schema.Len()
	for i := 0; ok && i < len(ref); i++ {
		switch k := schema.Cols[i].Kind; {
		case ref[i].K == value.KindInt && k == value.KindDouble:
			ref[i] = value.NewDouble(float64(ref[i].I))
		case ref[i].K != k && ref[i].K != value.KindNull:
			ok = false
		}
	}
	if ok != (rowErr == nil) {
		t.Fatalf("record %q: DecodeRow error %v, wire codec accepts %v", rec, rowErr, ok)
	}
	if ok && EncodeRow(row) != EncodeRow(ref) {
		t.Fatalf("record %q: DecodeRow %v, wire codec %v", rec, row, ref)
	}
}

// checkMaskedRead reads recs in one batch as a stage with masks drawn from
// mask's first two bytes would, against DecodeRow's rows and first error
// for them.
func checkMaskedRead(t *testing.T, schema *value.Schema, mask string, recs []string, rows []value.Row, rowErr error) {
	t.Helper()
	var keepBits, needBits byte = 0xff, 0xff
	if len(mask) > 0 {
		keepBits = mask[0]
	}
	if len(mask) > 1 {
		needBits = mask[1]
	}
	keep := []int{} // nil would keep every field
	var need []bool
	kept := &value.Schema{}
	for i, c := range schema.Cols {
		if keepBits&(1<<i) != 0 {
			keep = append(keep, i)
			need = append(need, needBits&(1<<i) != 0)
			kept.Cols = append(kept.Cols, c)
		}
	}
	rd := newRowReader(schema, keep, need)
	b, err := rd.read(recs)
	if (err == nil) != (rowErr == nil) {
		t.Fatalf("records %q: batch read (keep %v need %v) error %v, DecodeRow error %v", recs, keep, need, err, rowErr)
	}
	if err != nil {
		return
	}
	if b.N != len(recs) || b.Sel != nil || len(b.Cols) != len(keep) {
		t.Fatalf("records %q: batch of %d rows, %d columns, selection %v", recs, b.N, len(b.Cols), b.Sel)
	}
	for r, rec := range recs {
		want := make(value.Row, len(keep))
		for j, o := range keep {
			want[j] = rows[r][o]
			switch got := &b.Cols[j]; {
			case !need[j] && !got.Pruned:
				t.Fatalf("record %q: batch read built unneeded column %d", rec, o)
			case need[j] && (got.Pruned || EncodeRow(value.Row{got.Value(r)}) != EncodeRow(value.Row{rows[r][o]})):
				t.Fatalf("record %q: column %d = %v, DecodeRow %v", rec, o, got.Value(r), rows[r][o])
			}
		}
		proj := rd.project(nil, rec)
		back, err := DecodeRow(string(proj), kept)
		if err != nil || EncodeRow(back) != EncodeRow(want) {
			t.Fatalf("record %q: projection %q to %v decodes to %v, %v; want %v", rec, proj, keep, back, err, want)
		}
	}
}
