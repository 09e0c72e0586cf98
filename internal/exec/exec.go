// Package exec provides the physical query operators shared by the
// platform's query processors — the core engine, its scale-out workers, the
// driver side of the Hive compiler and ESP windows — and Block, the one
// analysis and execution of a SELECT block's back end (aggregate calls,
// HAVING, projection, DISTINCT, ORDER BY, LIMIT) that all four call. There is
// one hash aggregate, ParallelHashAggregate, and one hash join,
// HashJoinParallel, which runs every equi-join kind: inner, left outer, and
// the semi, anti and null-aware anti joins of IN/EXISTS subqueries. Every
// operator is one call that takes materialized relations (Rel) and returns
// one; expressions must be bound to the input schema before the call.
package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// Rel is a materialized relation, the one value operators take and return.
// It is batch-backed when Batches != nil — columnar batches straight from a
// vectorized scan, which operators read without boxing every row (Rows is
// then ignored) — and row-backed otherwise. Batches are treated as immutable
// except for their selection vectors, which Filter and Block.Finish refine in
// place: a relation handed to either is consumed.
type Rel struct {
	Schema  *value.Schema
	Rows    []value.Row
	Batches []*value.Batch
}

// JoinSide is a hash-join input; benchmark/probes.go names it.
type JoinSide = Rel

// NewBatchSlice is the batch-backed relation over bs; benchmark/probes.go
// calls it.
func NewBatchSlice(s *value.Schema, bs []*value.Batch) Rel { return Rel{Schema: s, Batches: bs} }

// Len returns the relation's live row count.
func (r Rel) Len() int {
	if r.Batches == nil {
		return len(r.Rows)
	}
	n := 0
	for _, b := range r.Batches {
		n += b.Len()
	}
	return n
}

// AllRows returns the relation's rows, boxing a batch-backed relation's live
// rows in batch order.
func (r Rel) AllRows() []value.Row {
	if r.Batches == nil {
		return r.Rows
	}
	rows := make([]value.Row, 0, r.Len())
	for _, b := range r.Batches {
		rows = append(rows, b.MaterializeRows()...)
	}
	return rows
}

// batch returns batch i of the relation, nil past the last: a batch-backed
// relation's own, or a row-backed one's rows cut into morsel-sized batches
// of the needed columns (nil = all; see value.BatchFromRows), cut on demand
// so a caller that stops early never transposes the rest.
func (r Rel) batch(i int, needed []bool) *value.Batch {
	if r.Batches != nil {
		if i < len(r.Batches) {
			return r.Batches[i]
		}
		return nil
	}
	lo := i * DefaultMorselSize
	if lo >= len(r.Rows) {
		return nil
	}
	return value.BatchFromRows(r.Schema, r.Rows[lo:min(lo+DefaultMorselSize, len(r.Rows))], needed)
}

// fillRow boxes global live row i into dst, which must have the relation's
// column width. offs is the relation's batchOffsets (ignored for rows).
func (r Rel) fillRow(i int, dst value.Row, offs []int) {
	if r.Batches != nil {
		b, phys := batchRowAt(r.Batches, offs, i)
		b.FillRow(phys, dst)
		return
	}
	copy(dst, r.Rows[i])
}

// Filter keeps the rows pred holds for through the vectorized predicate path
// (expr.SelectBatch) and returns them batch-backed; batches whose selection
// empties out are dropped. It is the platform's only filter operator.
func Filter(in Rel, pred expr.Expr) (Rel, error) {
	out := Rel{Schema: in.Schema, Batches: []*value.Batch{}}
	for i := 0; ; i++ {
		b := in.batch(i, nil)
		if b == nil {
			return out, nil
		}
		if err := expr.SelectBatch(pred, b); err != nil {
			return Rel{}, err
		}
		if b.Len() > 0 {
			out.Batches = append(out.Batches, b)
		}
	}
}

// project evaluates exprs over b's live rows into a batch over out, sharing
// column vectors for bare column references and falling back to the
// row-exact Eval path otherwise.
func project(b *value.Batch, exprs []expr.Expr, out *value.Schema) (*value.Batch, error) {
	pb := &value.Batch{Schema: out, Cols: make([]value.Vec, len(exprs)), N: b.Len()}
	for i, e := range exprs {
		v, err := expr.EvalBatch(e, b)
		if err != nil {
			return nil, err
		}
		pb.Cols[i] = v
	}
	return pb, nil
}
