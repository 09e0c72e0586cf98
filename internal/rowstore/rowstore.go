// Package rowstore implements the in-memory row store used for
// high-update-frequency tables and point queries (§3.1 of the paper: "row-
// oriented storage in main memory is used for extremely high update
// frequencies on smaller data sets and the execution of point queries").
// Rows are stored contiguously in append order; keys are the engine's to
// check.
package rowstore

import (
	"fmt"
	"sync"

	"hana/internal/value"
)

// Table is an in-memory row-oriented table.
type Table struct {
	mu     sync.RWMutex
	schema *value.Schema
	rows   []value.Row
}

// NewTable creates an empty row table.
func NewTable(schema *value.Schema) *Table { return &Table{schema: schema} }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Append adds a row and returns its row id.
func (t *Table) Append(row value.Row) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != t.schema.Len() {
		return 0, fmt.Errorf("row arity %d does not match schema arity %d", len(row), t.schema.Len())
	}
	t.rows = append(t.rows, row.Clone())
	return len(t.rows) - 1, nil
}

// Get returns the row with the given id.
func (t *Table) Get(id int) (value.Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || id >= len(t.rows) {
		return nil, fmt.Errorf("row id %d out of range", id)
	}
	return t.rows[id].Clone(), nil
}

// ScanRange invokes fn for rows with ids in [lo, hi) — the unit handed to
// one morsel worker. Concurrent ScanRange calls are safe under the read
// lock.
func (t *Table) ScanRange(lo, hi int, fn func(id int, row value.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if hi > len(t.rows) {
		hi = len(t.rows)
	}
	if lo < 0 {
		lo = 0
	}
	for id := lo; id < hi; id++ {
		if !fn(id, t.rows[id]) {
			return
		}
	}
}

// MemSize estimates the in-memory footprint in bytes. Row storage pays the
// full width of every value per row — the baseline Figure 2 compares
// columnar and time-series compression against.
func (t *Table) MemSize() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, r := range t.rows {
		n += 24 // slice header
		for _, v := range r {
			n += 16 // tag + padding
			switch v.K {
			case value.KindVarchar:
				n += int64(len(v.S)) + 16
			default:
				n += 8
			}
		}
	}
	return n
}
