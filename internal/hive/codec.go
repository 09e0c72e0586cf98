// Package hive implements the SQL-on-Hadoop layer the paper federates with
// (§4): a metastore holding table schemas, warehouse directories and the
// statistics the SDA optimizer consults; a compiler translating query
// blocks into DAGs of map-reduce jobs (scan jobs with pushed filters,
// reduce-side joins, aggregation jobs with combiners); the two-phase CREATE
// TABLE AS SELECT used for remote materialization (§4.4); and the
// `hiveodbc` and `hadoop` SDA adapters.
package hive

import (
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
	if err := decodeInto(row, rec, schema); err != nil {
		return nil, err
	}
	return row, nil
}

// decodeInto is DecodeRow into row; with a nil row it only checks rec.
func decodeInto(row value.Row, rec string, schema *value.Schema) error {
	n, off := value.Uvarint(rec)
	if off <= 0 || n != uint64(schema.Len()) {
		return fmt.Errorf("hive: row has %d fields, schema %d", n, schema.Len())
	}
	for i, c := range schema.Cols {
		v, w, err := value.DecodeValueString(rec[off:])
		if err == nil {
			v, err = asKind(v, c.Kind)
		}
		if err != nil {
			return fmt.Errorf("hive: column %s: %w", c.Name, err)
		}
		if row != nil {
			row[i] = v
		}
		off += w
	}
	if off != len(rec) {
		return fmt.Errorf("hive: row: %d trailing bytes", len(rec)-off)
	}
	return nil
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

// rowPool lends a map function the row it decodes a record into: a map
// function keeps no row past its call, so one row serves many records.
type rowPool struct {
	schema *value.Schema
	rows   sync.Pool // of *value.Row
}

// decode returns rec's row, to be handed back with release.
func (p *rowPool) decode(rec string) (*value.Row, error) {
	row, _ := p.rows.Get().(*value.Row)
	if row == nil {
		r := make(value.Row, p.schema.Len())
		row = &r
	}
	if err := decodeInto(*row, rec, p.schema); err != nil {
		p.release(row)
		return nil, err
	}
	return row, nil
}

func (p *rowPool) release(row *value.Row) { p.rows.Put(row) }

// EncodeKey serializes join/group key values: a flag byte, 1 when any value
// is NULL (NULL join keys never match), then each value in the value wire
// codec, canonical so that values value.Equal and Value.Hash treat as equal
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
