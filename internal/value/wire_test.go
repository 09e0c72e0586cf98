package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestWireValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		NewBool(true),
		NewBool(false),
		NewInt(0),
		NewInt(-1),
		NewInt(math.MaxInt64),
		NewInt(math.MinInt64),
		NewDouble(0),
		NewDouble(-3.25),
		NewDouble(math.Inf(1)),
		NewString(""),
		NewString("héllo, wörld"),
		NewDate(19000),
		NewTimestamp(1_700_000_000_000_000),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d", v, n, len(buf))
		}
		if got != v && !(math.IsNaN(got.F) && math.IsNaN(v.F)) {
			t.Fatalf("round-trip %v -> %v", v, got)
		}
	}
}

func TestWireRowRoundTripAndDeterminism(t *testing.T) {
	row := Row{NewInt(7), NewString("abc"), Null, NewDouble(1.5), NewBool(true)}
	a := AppendRow(nil, row)
	b := AppendRow(nil, row.Clone())
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
	got, n, err := DecodeRow(a)
	if err != nil || n != len(a) {
		t.Fatalf("decode: %v (n=%d/%d)", err, n, len(a))
	}
	if len(got) != len(row) {
		t.Fatalf("arity %d != %d", len(got), len(row))
	}
	for i := range row {
		if got[i] != row[i] {
			t.Fatalf("col %d: %v != %v", i, got[i], row[i])
		}
	}
	// Two rows back to back decode independently.
	two := AppendRow(a, row)
	_, n1, _ := DecodeRow(two)
	r2, n2, err := DecodeRow(two[n1:])
	if err != nil || n1+n2 != len(two) || r2[1].S != "abc" {
		t.Fatalf("sequential decode broken: %v", err)
	}
}

func TestWireDecodeCorrupt(t *testing.T) {
	row := Row{NewString("abcdef"), NewInt(1)}
	buf := AppendRow(nil, row)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeRow(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if _, _, err := DecodeValue([]byte{0xEE}); err == nil {
		t.Fatal("unknown kind not detected")
	}
	if _, _, err := DecodeValue(hugeVarchar()); err == nil {
		t.Fatal("VARCHAR length near 2^64 not detected")
	}
}

// The string decoders read what the byte decoders read, and Uvarint is
// binary.Uvarint, truncated and overlong encodings included.
func TestWireStringDecodersMatchByteDecoders(t *testing.T) {
	for _, b := range [][]byte{
		{}, {0x7f}, {0x80}, {0x80, 0x01}, binary.AppendUvarint(nil, math.MaxUint64),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		x, n := binary.Uvarint(b)
		if y, m := Uvarint(string(b)); x != y || n != m {
			t.Errorf("Uvarint(%x) = %d, %d; binary.Uvarint = %d, %d", b, y, m, x, n)
		}
	}
	for _, v := range []Value{Null, NewBool(true), NewInt(-7), NewDouble(math.Inf(-1)), NewString("abc"), NewDate(19000)} {
		enc := AppendValue(nil, v)
		want, wn, _ := DecodeValue(enc)
		if got, gn, err := DecodeValueString(string(enc)); err != nil || got != want || gn != wn {
			t.Errorf("DecodeValueString(%x) = %v, %d, %v; DecodeValue = %v, %d", enc, got, gn, err, want, wn)
		}
	}
	if _, _, err := DecodeValueString(string(hugeVarchar())); err == nil {
		t.Fatal("VARCHAR length near 2^64 not detected")
	}
}

// hugeVarchar is a VARCHAR whose declared length makes 1+w+l wrap around
// uint64, which used to pass the bound check and panic in the slice.
func hugeVarchar() []byte {
	b := binary.AppendUvarint([]byte{byte(KindVarchar)}, ^uint64(0)-10)
	return append(b, "12345678"...)
}

// FuzzDecodeRow: arbitrary bytes give an error or a row that survives
// re-encoding — never a panic — and ValueWidthString agrees with
// DecodeValueString on the value at their head: ok exactly when it decodes,
// with its kind and width. The seeds (one row per kind, plus the
// overflowing VARCHAR length) run as ordinary subtests under `go test`.
func FuzzDecodeRow(f *testing.F) {
	for _, v := range []Value{
		Null, NewBool(true), NewInt(math.MinInt64), NewDouble(-3.25),
		NewString("héllo"), NewDate(19000), NewTimestamp(1_700_000_000_000_000),
	} {
		f.Add(AppendRow(nil, Row{v, v}))
	}
	f.Add(append([]byte{1}, hugeVarchar()...))
	f.Fuzz(func(t *testing.T, b []byte) {
		k, w, ok := ValueWidthString(string(b))
		v, vn, verr := DecodeValueString(string(b))
		if ok != (verr == nil) || ok && (k != v.K || w != vn) {
			t.Fatalf("ValueWidthString(%x) = %v, %d, %v; DecodeValueString: %v, %d, %v", b, k, w, ok, v.K, vn, verr)
		}
		row, n, err := DecodeRow(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := AppendRow(nil, row)
		again, m, err := DecodeRow(enc)
		if err != nil || m != len(enc) {
			t.Fatalf("re-encoded row does not decode: %v (n=%d/%d)", err, m, len(enc))
		}
		if !bytes.Equal(AppendRow(nil, again), enc) {
			t.Fatalf("re-encoding is not stable: %v vs %v", row, again)
		}
	})
}
