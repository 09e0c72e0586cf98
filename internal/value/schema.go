package value

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name     string
	Kind     Kind
	Nullable bool
}

// Schema is an ordered list of columns. Column name lookup is
// case-insensitive, matching the SQL dialect.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// Find returns the ordinal of the named column, or -1. Names match
// case-insensitively and may be qualified ("t.a" matches column "a" as well
// as a column literally named "t.a").
func (s *Schema) Find(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	// Fall back to suffix match for qualified lookups against unqualified
	// column names and vice versa.
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		suffix := name[dot+1:]
		for i, c := range s.Cols {
			if strings.EqualFold(c.Name, suffix) {
				return i
			}
		}
	} else {
		for i, c := range s.Cols {
			if d := strings.LastIndexByte(c.Name, '.'); d >= 0 && strings.EqualFold(c.Name[d+1:], name) {
				return i
			}
		}
	}
	return -1
}

// MustFind is Find but panics on a missing column; used in tests and
// internal plan construction where the column is known to exist.
func (s *Schema) MustFind(name string) int {
	i := s.Find(name)
	if i < 0 {
		panic(fmt.Sprintf("schema has no column %q (have %v)", name, s.Names()))
	}
	return i
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Qualify returns a copy of the schema with every unqualified column name
// prefixed by alias.
func (s *Schema) Qualify(alias string) *Schema {
	out := &Schema{Cols: make([]Column, len(s.Cols))}
	for i, c := range s.Cols {
		if !strings.ContainsRune(c.Name, '.') && alias != "" {
			c.Name = alias + "." + c.Name
		}
		out.Cols[i] = c
	}
	return out
}

// Concat returns the concatenation of two schemas (used by joins).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Cols: make([]Column, 0, len(s.Cols)+len(o.Cols))}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Cols: make([]Column, len(s.Cols))}
	copy(out.Cols, s.Cols)
	return out
}

// String renders the schema as "(a BIGINT, b VARCHAR)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one tuple of values, positionally aligned with a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for debugging: "[1, foo, 2.5]".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Rows is a materialized result set.
type Rows struct {
	Schema *Schema
	Data   []Row
}

// NewRows allocates an empty result set with the given schema.
func NewRows(s *Schema) *Rows { return &Rows{Schema: s} }

// Append adds a row.
func (r *Rows) Append(row Row) { r.Data = append(r.Data, row) }

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Data) }

// EstimateBytes approximates the wire size of the result set; the federated
// cost model uses it to account for communication costs.
func (r *Rows) EstimateBytes() int64 {
	var n int64
	for _, row := range r.Data {
		n += RowBytes(row)
	}
	return n
}

// RowBytes approximates the serialized size of one row.
func RowBytes(row Row) int64 {
	var n int64
	for _, v := range row {
		switch v.K {
		case KindVarchar:
			n += int64(len(v.S)) + 2
		default:
			n += 8
		}
	}
	return n
}
