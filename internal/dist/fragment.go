package dist

import (
	"encoding/binary"
	"fmt"

	"hana/internal/value"
)

// Fragment is one unit of distributed work: scan one shard of one table,
// filter it with the pushed predicate, and either ship the surviving rows
// (tagged with their global scan sequence), fold them into an aggregate
// partial, or probe them against a broadcast build side. Predicates and key
// expressions travel as rendered SQL and are re-parsed and re-bound at the
// worker — the same round-trip the federation layer uses for shipped
// statements — so the wire format has no expression-tree encoding.
type Fragment struct {
	// Query tags the fragment with the statement's trace id (spans only).
	Query uint64
	// Shard selects which shard's replica the worker reads.
	Shard int
	// Snapshot is the MVCC commit-ID ceiling: workers serve exactly the
	// rows committed at or before it, matching the engine-side snapshot.
	Snapshot uint64
	// Width caps the worker's morsel parallelism for this fragment
	// (0 = the worker pool's size).
	Width int
	// Table is the catalog table name; Binding qualifies the scan schema
	// (the FROM alias), so shipped expressions bind exactly as they would
	// against the local leaf.
	Table   string
	Binding string
	// Where is the rendered conjunction pushed into the shard scan ("" =
	// none).
	Where string
	// Needed marks the column ordinals the statement references (nil = all,
	// else one entry per table column): the worker decodes those and reads
	// the others as NULL, as the local scan of the same leaf would.
	Needed []bool

	// At most one of Agg/Join is set; nil means a plain gather scan.
	Agg  *AggFragment
	Join *JoinFragment
}

// AggFragment asks the worker for per-group aggregate partials instead of
// rows. Every aggregate DistributableAgg admits merges exactly — counts,
// bounds, DISTINCT value lists and exact sums — so the coordinator's merge
// of the shards' partials finalises to the single-node result.
type AggFragment struct {
	GroupBy []string // rendered group-key expressions
	Aggs    []AggCall
}

// AggCall is one shipped aggregate: Func(Arg) with optional DISTINCT.
// Empty Arg means COUNT(*).
type AggCall struct {
	Func     string
	Arg      string
	Distinct bool
}

// DistributableAgg reports whether an aggregate function ships as a
// fragment: its exec.AggState merges exactly, whatever the numeric kind of
// the argument.
func DistributableAgg(fn string) bool {
	switch fn {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "VAR", "STDDEV":
		return true
	}
	return false
}

// JoinFragment broadcasts a realized build side to every shard of the probe
// table: each worker builds the same hash table in the same row order, so
// per-probe-row match chains come out in build-input order — exactly the
// serial hash join's emission order.
type JoinFragment struct {
	ProbeKeys []string // rendered probe-side key expressions
	BuildKeys []string // rendered build-side key expressions
	Residual  string   // rendered residual over probe++build columns ("" = none)
	BuildCols []value.Column
	BuildRows []value.Row
}

const fragmentWireVersion = 2

// Encode renders the fragment in the platform's wire format (uvarint
// framing over the value codec). Encoding is deterministic: equal fragments
// produce identical bytes.
func (f *Fragment) Encode() []byte {
	buf := []byte{fragmentWireVersion}
	buf = binary.AppendUvarint(buf, f.Query)
	buf = binary.AppendUvarint(buf, uint64(f.Shard))
	buf = binary.AppendUvarint(buf, f.Snapshot)
	buf = binary.AppendUvarint(buf, uint64(f.Width))
	buf = appendString(buf, f.Table)
	buf = appendString(buf, f.Binding)
	buf = appendString(buf, f.Where)
	buf = binary.AppendUvarint(buf, uint64(len(f.Needed)))
	for _, n := range f.Needed {
		buf = appendBool(buf, n)
	}
	if f.Agg != nil {
		buf = append(buf, 1)
		buf = appendStrings(buf, f.Agg.GroupBy)
		buf = binary.AppendUvarint(buf, uint64(len(f.Agg.Aggs)))
		for _, a := range f.Agg.Aggs {
			buf = appendString(buf, a.Func)
			buf = appendString(buf, a.Arg)
			buf = appendBool(buf, a.Distinct)
		}
	} else {
		buf = append(buf, 0)
	}
	if f.Join != nil {
		buf = append(buf, 1)
		buf = appendStrings(buf, f.Join.ProbeKeys)
		buf = appendStrings(buf, f.Join.BuildKeys)
		buf = appendString(buf, f.Join.Residual)
		buf = binary.AppendUvarint(buf, uint64(len(f.Join.BuildCols)))
		for _, c := range f.Join.BuildCols {
			buf = appendString(buf, c.Name)
			buf = append(buf, byte(c.Kind))
			buf = appendBool(buf, c.Nullable)
		}
		buf = binary.AppendUvarint(buf, uint64(len(f.Join.BuildRows)))
		for _, r := range f.Join.BuildRows {
			buf = value.AppendRow(buf, r)
		}
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeFragment parses an encoded fragment.
func DecodeFragment(b []byte) (*Fragment, error) {
	d := &wireReader{b: b}
	if v := d.byte(); v != fragmentWireVersion {
		return nil, fmt.Errorf("fragment decode: unsupported version %d", v)
	}
	f := &Fragment{}
	f.Query = d.uvarint()
	f.Shard = int(d.uvarint())
	f.Snapshot = d.uvarint()
	f.Width = int(d.uvarint())
	f.Table = d.string()
	f.Binding = d.string()
	f.Where = d.string()
	// One byte per marked column, length-checked against the payload like
	// any string.
	if mask := d.string(); mask != "" {
		f.Needed = make([]bool, len(mask))
		for i := range mask {
			f.Needed[i] = mask[i] != 0
		}
	}
	if d.bool() {
		agg := &AggFragment{GroupBy: d.strings()}
		n := int(d.uvarint())
		for i := 0; i < n && d.err == nil; i++ {
			agg.Aggs = append(agg.Aggs, AggCall{Func: d.string(), Arg: d.string(), Distinct: d.bool()})
		}
		f.Agg = agg
	}
	if d.bool() {
		j := &JoinFragment{
			ProbeKeys: d.strings(),
			BuildKeys: d.strings(),
			Residual:  d.string(),
		}
		nc := int(d.uvarint())
		for i := 0; i < nc && d.err == nil; i++ {
			j.BuildCols = append(j.BuildCols, value.Column{Name: d.string(), Kind: value.Kind(d.byte()), Nullable: d.bool()})
		}
		nr := int(d.uvarint())
		for i := 0; i < nr && d.err == nil; i++ {
			j.BuildRows = append(j.BuildRows, d.row())
		}
		f.Join = j
	}
	if d.err != nil {
		return nil, fmt.Errorf("fragment decode: %w", d.err)
	}
	return f, nil
}

// --- wire helpers ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// wireReader is a cursor over an encoded payload; the first malformed field
// latches err and every later read returns a zero value.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (d *wireReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("truncated %s at offset %d", what, d.off)
	}
}

func (d *wireReader) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *wireReader) bool() bool { return d.byte() != 0 }

func (d *wireReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireReader) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *wireReader) string() string {
	l := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < l {
		d.fail("string")
		return ""
	}
	s := string(d.b[d.off : d.off+int(l)])
	d.off += int(l)
	return s
}

func (d *wireReader) strings() []string {
	n := int(d.uvarint())
	if n == 0 || d.err != nil {
		return nil
	}
	// Cap the prealloc: n is wire data, and a corrupt length must surface
	// as a short-buffer decode error, not an oversized allocation.
	out := make([]string, 0, min(n, 64))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.string())
	}
	return out
}

func (d *wireReader) row() value.Row {
	if d.err != nil {
		return nil
	}
	r, n, err := value.DecodeRow(d.b[d.off:])
	if err != nil {
		d.err = err
		return nil
	}
	d.off += n
	return r
}

func (d *wireReader) value() value.Value {
	if d.err != nil {
		return value.Null
	}
	v, n, err := value.DecodeValue(d.b[d.off:])
	if err != nil {
		d.err = err
		return value.Null
	}
	d.off += n
	return v
}
