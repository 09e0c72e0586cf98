// Package exec provides the physical query operators shared by the
// platform's query processors — the core engine, its scale-out workers, the
// driver side of the Hive compiler and ESP windows — and Block, the one
// analysis and execution of a SELECT block's back end (aggregate calls,
// HAVING, projection, DISTINCT, ORDER BY, LIMIT) that all four call. There is
// one hash aggregate, ParallelHashAggregate, and one hash join,
// HashJoinParallel, which runs every equi-join kind: inner, left outer, and
// the semi, anti and null-aware anti joins of IN/EXISTS subqueries. Operators
// pull rows from Iter inputs or batches from BatchIter inputs; expressions
// must be bound to the input schema before construction.
package exec

import (
	"fmt"
	"sort"

	"hana/internal/expr"
	"hana/internal/value"
)

// Iter is a pull-based row iterator.
type Iter interface {
	// Schema describes the rows produced.
	Schema() *value.Schema
	// Next returns the next row. ok=false signals exhaustion. The returned
	// row may be reused by the iterator; callers that retain rows must
	// Clone them.
	Next() (row value.Row, ok bool, err error)
}

// Materialize drains an iterator into a result set (cloning rows). Batch
// producers are drained batch-at-a-time: their materialized rows are
// freshly allocated per batch, so no per-row clone is needed.
func Materialize(it Iter) (*value.Rows, error) {
	out := value.NewRows(it.Schema())
	if b, ok := it.(BatchIter); ok {
		rows, err := drainBatchRows(b)
		if err != nil {
			return nil, err
		}
		out.Data = rows
		return out, nil
	}
	for {
		row, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Append(row.Clone())
	}
}

// Slice iterates a materialized row set.
type Slice struct {
	S    *value.Schema
	Rows []value.Row
	i    int
}

// NewSlice builds a Slice iterator.
func NewSlice(s *value.Schema, rows []value.Row) *Slice {
	return &Slice{S: s, Rows: rows}
}

// Schema implements Iter.
func (s *Slice) Schema() *value.Schema { return s.S }

// Next implements Iter.
func (s *Slice) Next() (value.Row, bool, error) {
	if s.i >= len(s.Rows) {
		return nil, false, nil
	}
	r := s.Rows[s.i]
	s.i++
	return r, true, nil
}

// rest implements materialized.
func (s *Slice) rest() ([]value.Row, error) {
	rows := s.Rows[s.i:]
	s.i = len(s.Rows)
	return rows, nil
}

// Limit stops after N rows (N < 0 = unlimited) with optional offset.
type Limit struct {
	In     Iter
	N      int64
	Offset int64
	seen   int64
}

// Schema implements Iter.
func (l *Limit) Schema() *value.Schema { return l.In.Schema() }

// Next implements Iter.
func (l *Limit) Next() (value.Row, bool, error) {
	for l.seen < l.Offset {
		_, ok, err := l.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		l.seen++
	}
	if l.N >= 0 && l.seen >= l.Offset+l.N {
		return nil, false, nil
	}
	row, ok, err := l.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// SortKey is one ORDER BY key over a bound expression.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort fully materializes and sorts its input.
type Sort struct {
	In   Iter
	Keys []SortKey

	sorted []value.Row
	i      int
	done   bool
}

// Schema implements Iter.
func (s *Sort) Schema() *value.Schema { return s.In.Schema() }

// Next implements Iter.
func (s *Sort) Next() (value.Row, bool, error) {
	if !s.done {
		rows, err := Materialize(s.In)
		if err != nil {
			return nil, false, err
		}
		type keyed struct {
			row  value.Row
			keys []value.Value
		}
		ks := make([]keyed, len(rows.Data))
		for i, r := range rows.Data {
			kv := make([]value.Value, len(s.Keys))
			for j, k := range s.Keys {
				v, err := k.E.Eval(r)
				if err != nil {
					return nil, false, err
				}
				kv[j] = v
			}
			ks[i] = keyed{row: r, keys: kv}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for j, k := range s.Keys {
				c := value.Compare(ks[a].keys[j], ks[b].keys[j])
				if c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		s.sorted = make([]value.Row, len(ks))
		for i, k := range ks {
			s.sorted[i] = k.row
		}
		s.done = true
	}
	if s.i >= len(s.sorted) {
		return nil, false, nil
	}
	r := s.sorted[s.i]
	s.i++
	return r, true, nil
}

// Distinct removes duplicate rows (full-row comparison).
type Distinct struct {
	In   Iter
	seen map[uint64][]value.Row
	ords []int // every column ordinal, built with seen
}

// Schema implements Iter.
func (d *Distinct) Schema() *value.Schema { return d.In.Schema() }

// Next implements Iter.
func (d *Distinct) Next() (value.Row, bool, error) {
	if d.seen == nil {
		d.seen = map[uint64][]value.Row{}
		d.ords = ordinals(d.In.Schema().Len())
	}
	for {
		row, ok, err := d.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		h := row.Hash(d.ords)
		dup := false
		for _, prev := range d.seen[h] {
			if row.EqualAt(prev, d.ords, d.ords) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := row.Clone()
		d.seen[h] = append(d.seen[h], c)
		return c, true, nil
	}
}

// errIter reports a deferred error.
type errIter struct{ err error }

// Error builds an iterator that fails immediately; planners use it to defer
// runtime errors to execution time.
func Error(err error) Iter { return &errIter{err: err} }

// Schema implements Iter.
func (e *errIter) Schema() *value.Schema { return value.NewSchema() }

// Next implements Iter.
func (e *errIter) Next() (value.Row, bool, error) { return nil, false, e.err }

// renameIter exposes an input under a different schema (same arity).
type renameIter struct {
	in Iter
	s  *value.Schema
}

// Rename re-labels the columns of an iterator, e.g. when a derived table
// gets an alias.
func Rename(in Iter, s *value.Schema) Iter {
	if s.Len() != in.Schema().Len() {
		return Error(fmt.Errorf("rename arity mismatch: %d vs %d", s.Len(), in.Schema().Len()))
	}
	return &renameIter{in: in, s: s}
}

// Schema implements Iter.
func (r *renameIter) Schema() *value.Schema { return r.s }

// Next implements Iter.
func (r *renameIter) Next() (value.Row, bool, error) { return r.in.Next() }
