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
	d := value.NewCursor(b)
	if v := d.Byte(); v != fragmentWireVersion {
		return nil, fmt.Errorf("fragment decode: unsupported version %d", v)
	}
	f := &Fragment{}
	f.Query = d.Uvarint()
	f.Shard = int(d.Uvarint())
	f.Snapshot = d.Uvarint()
	f.Width = int(d.Uvarint())
	f.Table = d.Str()
	f.Binding = d.Str()
	f.Where = d.Str()
	// One byte per marked column, length-checked against the payload like
	// any string.
	if mask := d.Str(); mask != "" {
		f.Needed = make([]bool, len(mask))
		for i := range mask {
			f.Needed[i] = mask[i] != 0
		}
	}
	if d.Bool() {
		agg := &AggFragment{GroupBy: readStrings(&d)}
		n := int(d.Uvarint())
		for i := 0; i < n && d.Err() == nil; i++ {
			agg.Aggs = append(agg.Aggs, AggCall{Func: d.Str(), Arg: d.Str(), Distinct: d.Bool()})
		}
		f.Agg = agg
	}
	if d.Bool() {
		j := &JoinFragment{
			ProbeKeys: readStrings(&d),
			BuildKeys: readStrings(&d),
			Residual:  d.Str(),
		}
		nc := int(d.Uvarint())
		for i := 0; i < nc && d.Err() == nil; i++ {
			j.BuildCols = append(j.BuildCols, value.Column{Name: d.Str(), Kind: value.Kind(d.Byte()), Nullable: d.Bool()})
		}
		nr := int(d.Uvarint())
		for i := 0; i < nr && d.Err() == nil; i++ {
			j.BuildRows = append(j.BuildRows, d.Row())
		}
		f.Join = j
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("fragment decode: %w", err)
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

// readStrings reads a uvarint count and that many strings.
func readStrings(d *value.Cursor) []string {
	n := d.Uvarint()
	if n == 0 || d.Err() != nil {
		return nil
	}
	// Cap the prealloc: n is wire data, and a corrupt length must surface
	// as a short-buffer decode error, not an oversized allocation. It stays
	// unsigned: as an int, a count past MaxInt64 would go negative.
	out := make([]string, 0, min(n, 64))
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		out = append(out, d.Str())
	}
	return out
}
