// Package exec provides the physical query operators shared by the
// platform's query processors — the core engine, its scale-out workers, the
// driver side of the Hive compiler and ESP windows — and Block, the one
// analysis and execution of a SELECT block's back end (aggregate calls,
// HAVING, projection, DISTINCT, ORDER BY, LIMIT) that all four call. There is
// one hash aggregate, ParallelHashAggregate, and one hash join, HashJoin,
// which runs every equi-join kind (inner, left outer, and the semi, anti and
// null-aware anti joins of IN/EXISTS subqueries) and emits typed batches.
// Every operator is one call that takes materialized relations (Rel) and
// returns one; expressions must be bound to the input schema before it.
package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// Rel is a materialized relation, the one value operators take and return:
// columnar batches, straight from a vectorized scan or cut from rows by
// RowRel, which operators read without boxing a row. Rows leave once, at
// AllRows. Batches are treated as immutable except for their selection
// vectors, which Filter and Block.Finish refine in place: a relation handed
// to either is consumed.
type Rel struct {
	Schema  *value.Schema
	Batches []*value.Batch
}

// JoinSide is a hash-join input; benchmark/probes.go names it.
type JoinSide = Rel

// NewBatchSlice is the relation over bs; benchmark/probes.go calls it.
func NewBatchSlice(s *value.Schema, bs []*value.Batch) Rel { return Rel{Schema: s, Batches: bs} }

// RowRel is the relation over rows, the one place rows enter the executor
// (table providers, remote results, the ESP window, a broadcast join's
// build rows): morsel-sized batches cut by value.BatchFromRows of the
// columns needed marks (nil = all; the others are pruned). An empty input
// is one empty batch, so a join against it still gathers typed NULLs.
func RowRel(s *value.Schema, rows []value.Row, needed []bool) Rel {
	r := Rel{Schema: s, Batches: make([]*value.Batch, 0, max(1, (len(rows)+DefaultMorselSize-1)/DefaultMorselSize))}
	for lo := 0; lo == 0 || lo < len(rows); lo += DefaultMorselSize {
		r.Batches = append(r.Batches, value.BatchFromRows(s, rows[lo:min(lo+DefaultMorselSize, len(rows))], needed))
	}
	return r
}

// Len returns the relation's live row count.
func (r Rel) Len() int {
	n := 0
	for _, b := range r.Batches {
		n += b.Len()
	}
	return n
}

// AllRows boxes the relation's live rows in batch order: where rows leave
// the executor (a statement's result, a nested block's rows, a remote
// processor's answer).
func (r Rel) AllRows() []value.Row {
	rows := make([]value.Row, 0, r.Len())
	for _, b := range r.Batches {
		rows = append(rows, b.MaterializeRows()...)
	}
	return rows
}

// KeySet builds the set of key's values, key bound to r's schema, over r's
// live rows one batch at a time: a bare column's vector is read in place,
// any other key is evaluated over the batch first. This is how a subquery's
// or a semijoin's key set is built.
func KeySet(r Rel, key expr.Expr) (*value.KeySet, error) {
	set := &value.KeySet{}
	var buf []int32
	for _, b := range r.Batches {
		if cap(buf) < b.Len() {
			buf = make([]int32, b.Len())
		}
		rows := buf[:b.Len()]
		if v := bareCol(key, b); v != nil {
			for k := range rows {
				rows[k] = int32(b.RowIndex(k))
			}
			set.AddVec(v, rows)
			continue
		}
		v, err := expr.EvalBatch(key, b)
		if err != nil {
			return nil, err
		}
		for k := range rows {
			rows[k] = int32(k)
		}
		set.AddVec(&v, rows)
	}
	return set, nil
}

// Filter keeps the rows pred holds for through the vectorized predicate path
// (expr.SelectBatch) and returns them; batches whose selection
// empties out are dropped. It is the platform's only filter operator.
func Filter(in Rel, pred expr.Expr) (Rel, error) {
	out := Rel{Schema: in.Schema, Batches: []*value.Batch{}}
	for _, b := range in.Batches {
		if err := expr.SelectBatch(pred, b); err != nil {
			return Rel{}, err
		}
		if b.Len() > 0 {
			out.Batches = append(out.Batches, b)
		}
	}
	return out, nil
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
