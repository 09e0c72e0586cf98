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
	"sync"

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
	row := make(value.Row, schema.Len())
	if err := newRowReader(schema, nil, nil).decode(row, rec); err != nil {
		return nil, err
	}
	return row, nil
}

// rowReader is the one way Hive reads a row record: a stage's view of
// records stored under a schema. It keeps the stored fields at keep — the
// stage's relation, in stored order — and builds into a row of those kept
// columns only the ones the stage's expressions read. Every field, kept,
// built or neither, is still framed and checked against its column's kind,
// so a record DecodeRow rejects fails whichever stage reads it. A reader is
// immutable and shared by a job's concurrent tasks.
type rowReader struct {
	stored *value.Schema
	kinds  []value.Kind // per stored field: its column's kind
	slot   []int        // per stored field: its position in the kept row, or -1
	build  []bool       // per stored field: decoded into the row
	width  int          // kept columns
	narrow bool         // width < stored fields: a kept record is a projection
	pool   sync.Pool
}

// newRowReader reads records stored under stored. keep lists the stored
// ordinals kept, ascending (nil keeps every field); need marks, per kept
// column, the ones to build (nil builds every kept column).
func newRowReader(stored *value.Schema, keep []int, need []bool) *rowReader {
	n := stored.Len()
	d := &rowReader{stored: stored, kinds: make([]value.Kind, n), slot: make([]int, n), build: make([]bool, n)}
	if keep == nil {
		keep = make([]int, n)
		for i := range keep {
			keep[i] = i
		}
	}
	for i, c := range stored.Cols {
		d.kinds[i], d.slot[i] = c.Kind, -1
	}
	for j, o := range keep {
		d.slot[o] = j
		d.build[o] = need == nil || need[j]
	}
	d.width, d.narrow = len(keep), len(keep) < n
	return d
}

// decode checks rec and builds the needed kept columns into row, which has
// one slot per kept column; the other slots are left as they are.
func (d *rowReader) decode(row value.Row, rec string) error {
	_, err := d.read(row, rec, nil, false)
	return err
}

// read is decode that, when project is set, also appends rec's projection —
// the kept fields' bytes under their count, a record of the kept columns —
// to buf.
func (d *rowReader) read(row value.Row, rec string, buf []byte, project bool) ([]byte, error) {
	n, off := value.Uvarint(rec)
	if off <= 0 || n != uint64(len(d.slot)) {
		return buf, fmt.Errorf("hive: row has %d fields, schema %d", n, len(d.slot))
	}
	if project {
		buf = binary.AppendUvarint(buf, uint64(d.width))
	}
	for i, k := range d.kinds {
		// A field not built is only framed and its kind checked; one that
		// fails the check is decoded, which says why.
		var w int
		ok := false
		if !d.build[i] {
			var t value.Kind
			t, w, ok = value.ValueWidthString(rec[off:])
			ok = ok && (t == k || t == value.KindNull || t == value.KindInt && k == value.KindDouble)
		}
		if !ok {
			v, vw, err := value.DecodeValueString(rec[off:])
			if err == nil && v.K != k && v.K != value.KindNull {
				v, err = asKind(v, k)
			}
			if err != nil {
				return buf, fmt.Errorf("hive: column %s: %w", d.stored.Cols[i].Name, err)
			}
			if d.build[i] {
				row[d.slot[i]] = v
			}
			w = vw
		}
		if project && d.slot[i] >= 0 {
			buf = append(buf, rec[off:off+w]...)
		}
		off += w
	}
	if off != len(rec) {
		return buf, fmt.Errorf("hive: row: %d trailing bytes", len(rec)-off)
	}
	return buf, nil
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

// scratch is what a map function borrows per record: the kept row a record
// is decoded into and the buffer its output record is built in. A map
// function keeps neither past its call, so one scratch serves many records.
type scratch struct {
	row value.Row
	out []byte
}

// borrow lends a scratch, to be handed back with release.
func (d *rowReader) borrow() *scratch {
	if s, ok := d.pool.Get().(*scratch); ok {
		return s
	}
	return &scratch{row: make(value.Row, d.width)}
}

func (d *rowReader) release(s *scratch) { d.pool.Put(s) }

// EncodeKey serializes join/group key values: a flag byte, 1 when any value
// is NULL (NULL join keys never match), then each value in the value wire
// codec, canonical so that values value.Compare and Value.Hash treat as equal
// get equal bytes: a DOUBLE with an integral value in range is written as
// that BIGINT (1 = 1.0, −0.0 = 0.0), every NaN as one NaN, and a TIMESTAMP
// as the DATE of the same integer (temporal kinds compare by it).
func EncodeKey(vals []value.Value) string {
	var arr [64]byte
	buf := append(arr[:0], 0)
	for _, v := range vals {
		switch f := v.F; {
		case v.K == value.KindNull:
			buf[0] = 1
		case v.K == value.KindDouble && f >= -0x1p63 && f < 0x1p63 && f == math.Trunc(f):
			v = value.NewInt(int64(f))
		case v.K == value.KindDouble && f != f:
			v = value.NewDouble(math.NaN())
		case v.K == value.KindTimestamp:
			v.K = value.KindDate
		}
		buf = value.AppendValue(buf, v)
	}
	return string(buf)
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
