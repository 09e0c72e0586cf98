package colstore

import (
	"fmt"
	"sync"

	"hana/internal/value"
)

// Table is an in-memory columnar table fragment. It stores raw rows; MVCC
// visibility (insert/delete commit IDs) is layered on top by the engine's
// transaction manager, which owns version vectors aligned with row ids.
//
// AutoMergeThreshold rows in the delta trigger an automatic delta merge on
// the next append, keeping scans on the compressed main fragment.
type Table struct {
	mu     sync.RWMutex
	schema *value.Schema
	cols   []*Column

	// AutoMergeThreshold is the delta size that triggers a merge;
	// 0 disables automatic merging.
	AutoMergeThreshold int
}

// NewTable creates an empty columnar table with the given schema.
func NewTable(schema *value.Schema) *Table {
	t := &Table{schema: schema, AutoMergeThreshold: 64 * 1024}
	for _, c := range schema.Cols {
		t.cols = append(t.cols, NewColumn(c.Kind))
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *value.Schema { return t.schema }

// NumRows returns the number of stored rows (including rows an MVCC layer
// may consider deleted).
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// Append adds a row and returns its row id.
func (t *Table) Append(row value.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != len(t.cols) {
		return 0, fmt.Errorf("row arity %d does not match schema arity %d", len(row), len(t.cols))
	}
	id := 0
	if len(t.cols) > 0 {
		id = t.cols[0].Len()
	}
	for i, c := range t.cols {
		if err := c.Append(row[i]); err != nil {
			return 0, fmt.Errorf("column %s: %w", t.schema.Cols[i].Name, err)
		}
	}
	if t.AutoMergeThreshold > 0 && len(t.cols) > 0 && t.cols[0].deltaLen() >= t.AutoMergeThreshold {
		for _, c := range t.cols {
			c.Merge()
		}
	}
	return id, nil
}

// Grow reserves delta room for n more rows, so a bulk append of n rows
// leaves no growth slack behind.
func (t *Table) Grow(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cols {
		c.grow(n)
	}
}

// Get returns the row with the given id.
func (t *Table) Get(id int) (value.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 || id < 0 || id >= t.cols[0].Len() {
		return nil, fmt.Errorf("row id %d out of range", id)
	}
	row := make(value.Row, len(t.cols))
	for i, c := range t.cols {
		row[i] = c.Get(id)
	}
	return row, nil
}

// GetValue returns a single cell.
func (t *Table) GetValue(id, col int) value.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[col].Get(id)
}

// SetValue overwrites a single cell in place. The engine uses it only for
// system-managed columns (e.g. the aging flag); user updates go through
// MVCC delete+insert.
func (t *Table) SetValue(id, col int, v value.Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cols[col]
	// In-place update of a compressed fragment is not supported; rewrite the
	// column through the delta. This is rare (system columns), so a simple
	// rebuild is acceptable.
	n := c.Len()
	if id < 0 || id >= n {
		return fmt.Errorf("row id %d out of range", id)
	}
	nc := NewColumn(c.Kind)
	for i := 0; i < n; i++ {
		val := c.Get(i)
		if i == id {
			val = v
		}
		if err := nc.Append(val); err != nil {
			return err
		}
	}
	nc.Merge()
	t.cols[col] = nc
	return nil
}

// Scan invokes fn for every row id in order until fn returns false. The
// row slice is reused between calls; clone it to retain.
func (t *Table) Scan(fn func(id int, row value.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return
	}
	n := t.cols[0].Len()
	row := make(value.Row, len(t.cols))
	for i := 0; i < n; i++ {
		for j, c := range t.cols {
			row[j] = c.Get(i)
		}
		if !fn(i, row) {
			return
		}
	}
}

// ScanColumns is Scan restricted to a projection of column ordinals,
// avoiding materialization of unused columns — the core benefit of columnar
// layout for OLAP scans.
func (t *Table) ScanColumns(ords []int, fn func(id int, row value.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.cols) == 0 {
		return
	}
	n := t.cols[0].Len()
	row := make(value.Row, len(ords))
	for i := 0; i < n; i++ {
		for j, o := range ords {
			row[j] = t.cols[o].Get(i)
		}
		if !fn(i, row) {
			return
		}
	}
}

// Merge forces a delta merge on every column.
func (t *Table) Merge() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cols {
		c.Merge()
	}
}

// Column exposes the i-th column for statistics construction.
func (t *Table) Column(i int) *Column { return t.cols[i] }

// MemSize estimates the total in-memory footprint in bytes.
func (t *Table) MemSize() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, c := range t.cols {
		n += c.MemSize()
	}
	return n
}

// Truncate removes all rows.
func (t *Table) Truncate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.schema.Cols {
		t.cols[i] = NewColumn(c.Kind)
	}
}

// AddColumn appends a new column (used by flexible tables for schema
// extension on insert); existing rows get NULL.
func (t *Table) AddColumn(col value.Column) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if len(t.cols) > 0 {
		n = t.cols[0].Len()
	}
	nc := NewColumn(col.Kind)
	for i := 0; i < n; i++ {
		_ = nc.Append(value.Null)
	}
	t.schema.Cols = append(t.schema.Cols, col)
	t.cols = append(t.cols, nc)
}
