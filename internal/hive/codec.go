// Package hive implements the SQL-on-Hadoop layer the paper federates with
// (§4): a metastore holding table schemas, warehouse directories and the
// statistics the SDA optimizer consults; a compiler translating query
// blocks into DAGs of map-reduce jobs (reduce-side joins and aggregation
// jobs whose map tasks filter and pre-aggregate); the two-phase CREATE
// TABLE AS SELECT used for remote materialization (§4.4); and the
// `hiveodbc` and `hadoop` SDA adapters.
package hive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"hana/internal/expr"
	"hana/internal/hdfs"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// Every file Hive writes to HDFS is a mapreduce record file. A table row or
// an intermediate row is the record ("", EncodeRow(row)); a shuffle key is
// EncodeKey's canonical form; an aggregate partial is exec.AppendAggState
// per aggregate. Text is left only where a hadoop driver's output is read
// (ReadText).

// EncodeRow serializes one row in the value wire codec (value.AppendRow).
func EncodeRow(row value.Row) string { return string(value.AppendRow(nil, row)) }

// appendRows appends rows to a record file as ("", row) records.
func appendRows(buf []byte, rows []value.Row) []byte {
	var rec []byte
	for _, r := range rows {
		rec = value.AppendRow(rec[:0], r)
		buf = mapreduce.AppendRecord(buf, "", rec)
	}
	return buf
}

// DecodeRow parses one record under the schema, straight from the record
// string: a VARCHAR is a substring of it. The column count and each non-NULL
// value's kind must match the schema, except that an INTEGER in a DOUBLE
// column widens to a DOUBLE, as the column declares.
func DecodeRow(rec string, schema *value.Schema) (value.Row, error) {
	b, err := newRowReader(schema, nil, nil).read([]string{rec})
	if err != nil {
		return nil, err
	}
	return b.MaterializeRows()[0], nil
}

// rowReader is the one way Hive reads row records: a stage's view of
// records stored under a schema. It keeps the stored fields at keep — the
// stage's relation, in stored order — and decodes a morsel of records into
// a batch of those kept columns, building only the ones the stage's
// expressions read and pruning the rest. Every field, kept, built or
// neither, is still framed and checked against its column's kind, so a
// record DecodeRow rejects fails whichever stage reads it. A reader is
// immutable and shared by a job's concurrent tasks.
type rowReader struct {
	stored *value.Schema
	kept   *value.Schema
	kinds  []value.Kind // per stored field: its column's kind
	slot   []int        // per stored field: its kept column, or -1
	build  []bool       // per stored field: decoded into the batch
}

// newRowReader reads records stored under stored. keep lists the stored
// ordinals kept, ascending (nil keeps every field); need marks, per kept
// column, the ones to build (nil builds every kept column).
func newRowReader(stored *value.Schema, keep []int, need []bool) *rowReader {
	n := stored.Len()
	if keep == nil {
		keep = make([]int, n)
		for i := range keep {
			keep[i] = i
		}
	}
	d := &rowReader{stored: stored, kept: &value.Schema{}, kinds: make([]value.Kind, n), slot: make([]int, n), build: make([]bool, n)}
	for i, c := range stored.Cols {
		d.kinds[i], d.slot[i] = c.Kind, -1
	}
	for j, o := range keep {
		d.slot[o], d.build[o] = j, need == nil || need[j]
		d.kept.Cols = append(d.kept.Cols, stored.Cols[o])
	}
	return d
}

// read decodes recs into a batch of the kept columns, one row per record:
// typed vectors for the built columns (a VARCHAR a substring of its
// record), pruned ones for the rest.
func (d *rowReader) read(recs []string) (*value.Batch, error) {
	b := &value.Batch{Schema: d.kept, Cols: make([]value.Vec, d.kept.Len()), N: len(recs)}
	for i, o := range d.slot {
		if o >= 0 {
			b.Cols[o] = value.Vec{Kind: d.kinds[i], Pruned: true}
			if d.build[i] {
				b.Cols[o] = value.NewVec(d.kinds[i], len(recs))
			}
		}
	}
	for r, rec := range recs {
		if err := d.decode(b, r, rec); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// filter reads recs and selects the rows that satisfy pred (nil = all).
func (d *rowReader) filter(recs []string, pred expr.Expr) (*value.Batch, error) {
	b, err := d.read(recs)
	if err == nil {
		err = expr.SelectBatch(pred, b)
	}
	return b, err
}

// decode checks rec and writes its built fields at row r of b.
func (d *rowReader) decode(b *value.Batch, r int, rec string) error {
	n, off := value.Uvarint(rec)
	if off <= 0 || n != uint64(len(d.kinds)) {
		return fmt.Errorf("hive: row has %d fields, schema %d", n, len(d.kinds))
	}
	for i, k := range d.kinds {
		// A field not built is only framed and its kind checked; one that
		// fails the check is decoded, which says why.
		if !d.build[i] {
			t, w, ok := value.ValueWidthString(rec[off:])
			if ok && (t == k || t == value.KindNull || t == value.KindInt && k == value.KindDouble) {
				off += w
				continue
			}
		}
		v, w, err := value.DecodeValueString(rec[off:])
		if err == nil && v.K != k && v.K != value.KindNull {
			v, err = asKind(v, k)
		}
		if err != nil {
			return fmt.Errorf("hive: column %s: %w", d.stored.Cols[i].Name, err)
		}
		off += w
		if d.build[i] {
			b.Cols[d.slot[i]].Set(r, v)
		}
	}
	if off != len(rec) {
		return fmt.Errorf("hive: row: %d trailing bytes", len(rec)-off)
	}
	return nil
}

// project appends the record of the kept columns of a record read accepted
// to buf: the record itself when every field is kept, else the kept
// fields' bytes under their count.
func (d *rowReader) project(buf []byte, rec string) []byte {
	if d.kept.Len() == len(d.kinds) {
		return append(buf, rec...)
	}
	_, off := value.Uvarint(rec)
	buf = binary.AppendUvarint(buf, uint64(d.kept.Len()))
	for i := range d.kinds {
		_, w, _ := value.ValueWidthString(rec[off:])
		if d.slot[i] >= 0 {
			buf = append(buf, rec[off:off+w]...)
		}
		off += w
	}
	return buf
}

// readDir reads the row records under dir through rd, a batch per morsel
// of them.
func readDir(c *hdfs.Cluster, dir string, rd *rowReader) ([]*value.Batch, error) {
	var recs []string
	err := mapreduce.ReadDir(c, dir, func(_, rec string) error {
		recs = append(recs, rec)
		return nil
	})
	var bs []*value.Batch
	for lo := 0; err == nil && lo < len(recs); lo += mapreduce.MorselSize {
		var b *value.Batch
		b, err = rd.read(recs[lo:min(lo+mapreduce.MorselSize, len(recs))])
		bs = append(bs, b)
	}
	return bs, err
}

// asKind checks a decoded value against its column's kind: NULL fits any
// column, and an INTEGER widens into a DOUBLE column.
func asKind(v value.Value, k value.Kind) (value.Value, error) {
	switch {
	case v.K == k || v.K == value.KindNull:
		return v, nil
	case v.K == value.KindInt && k == value.KindDouble:
		return value.NewDouble(float64(v.I)), nil
	}
	return value.Null, fmt.Errorf("%s value in a %s column", v.K, k)
}

// EncodeKey serializes join/group key values: a flag byte, 1 when any value
// is NULL (NULL join keys never match), then each value in the value wire
// codec, canonical so that values value.Compare and Value.Hash treat as equal
// get equal bytes: a DOUBLE with an integral value in range is written as
// that BIGINT (1 = 1.0, −0.0 = 0.0), every NaN as one NaN, and a TIMESTAMP
// as the DATE of the same integer (temporal kinds compare by it).
func EncodeKey(vals []value.Value) string {
	var arr [64]byte
	return string(appendKey(arr[:0], vals))
}

// appendKey appends EncodeKey's bytes for vals to buf.
func appendKey(buf []byte, vals []value.Value) []byte {
	flag := len(buf)
	buf = append(buf, 0)
	for _, v := range vals {
		switch f := v.F; {
		case v.K == value.KindNull:
			buf[flag] = 1
		case v.K == value.KindDouble && f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f):
			v = value.NewInt(int64(f))
		case v.K == value.KindDouble && f != f:
			v = value.NewDouble(math.NaN())
		case v.K == value.KindTimestamp:
			v.K = value.KindDate
		}
		buf = value.AppendValue(buf, v)
	}
	return buf
}

// keyHasNull reports whether an encoded key holds a NULL.
func keyHasNull(key string) bool { return key != "" && key[0] != 0 }

// decodeKey reads a key written by EncodeKey, each value as the kind its
// column declares.
func decodeKey(key string, cols []value.Column) (value.Row, error) {
	if key == "" {
		return nil, errors.New("hive: key: no flag byte")
	}
	row := make(value.Row, len(cols))
	off := 1
	for i, c := range cols {
		v, w, err := value.DecodeValueString(key[off:])
		if v.K == value.KindDate && c.Kind == value.KindTimestamp {
			v.K = c.Kind
		}
		if err == nil {
			row[i], err = asKind(v, c.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("hive: key: %w", err)
		}
		off += w
	}
	if off != len(key) {
		return nil, fmt.Errorf("hive: key: %d trailing bytes", len(key)-off)
	}
	return row, nil
}

// ReadText reads the files under dir as Hive's classic text rows —
// tab-separated, \N for NULL — under the schema: the contract of a hadoop
// driver's output (§4.3). A pair (k, v) is the line "k\tv", or v when k is
// empty; empty lines are skipped.
func ReadText(c *hdfs.Cluster, dir string, schema *value.Schema) (*value.Rows, error) {
	out := value.NewRows(schema.Clone())
	err := mapreduce.ReadDir(c, dir, func(k, line string) error {
		if k != "" {
			line = k + "\t" + line
		}
		if line == "" {
			return nil
		}
		fields := strings.Split(line, "\t")
		if len(fields) != schema.Len() {
			return fmt.Errorf("hive: row has %d fields, schema %d: %q", len(fields), schema.Len(), line)
		}
		row := make(value.Row, len(fields))
		for i, f := range fields {
			v, err := parseField(f, schema.Cols[i].Kind)
			if err != nil {
				return fmt.Errorf("hive: column %s: %w", schema.Cols[i].Name, err)
			}
			row[i] = v
		}
		out.Append(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func parseField(s string, k value.Kind) (value.Value, error) {
	switch {
	case s == `\N`:
		return value.Null, nil
	case k == value.KindBool:
		return value.NewBool(strings.EqualFold(s, "true")), nil
	case strings.ContainsRune(s, '\\'):
		s = strings.NewReplacer(`\\`, "\\", `\t`, "\t", `\n`, "\n").Replace(s)
	}
	return value.Cast(value.NewString(s), k)
}
