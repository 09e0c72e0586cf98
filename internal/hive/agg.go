package hive

import (
	"context"
	"fmt"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/mapreduce"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// finish runs the block's back end. The aggregate is this processor's own —
// a map-reduce job aggregating map-side, or, for DISTINCT aggregates, whose
// partials cannot merge, the shared hash aggregate over the materialized
// relation, which a map-only job filters first — and the stages after it are
// exec.Block.Finish in the driver, as Hive's final single-reducer stages are.
func (x *Executor) finish(sel *sqlparse.SelectStmt, rel *interRel) (*value.Rows, error) {
	blk, err := exec.AnalyzeBlock(sel, rel.schema)
	if err != nil {
		return nil, fmt.Errorf("hive: %w", err)
	}
	inDriver := !blk.Aggregates()
	for _, a := range blk.Aggs {
		inDriver = inDriver || a.Distinct
	}
	var in exec.Rel
	if inDriver {
		if len(rel.pending) > 0 {
			if rel, err = x.scan(rel); err != nil {
				return nil, err
			}
			defer x.cleanup(rel)
		}
		// The block's back end reads the columns its select list, GROUP BY,
		// HAVING and ORDER BY name.
		tail := *sel
		tail.From, tail.Where = nil, nil
		if in, err = x.materialize(rel, sqlparse.ReferencedColumns(&tail).Mask(rel.schema)); err != nil {
			return nil, err
		}
		if blk.Aggregates() {
			agg := &exec.ParallelHashAggregate{In: in, GroupBy: blk.GroupBy, Aggs: blk.Aggs, Out: blk.AggSchema}
			if in, err = agg.Run(); err != nil {
				return nil, err
			}
		}
	} else if in, err = x.mrAggregate(blk, rel); err != nil {
		return nil, err
	}
	out, _, err := blk.Finish(nil, in, nil)
	if err != nil {
		return nil, err
	}
	return &value.Rows{Schema: out.Schema, Data: out.AllRows()}, nil
}

// materialize reads the relation, which has no pending filters, into the
// driver, building the columns need marks (nil = all).
func (x *Executor) materialize(rel *interRel, need []bool) (exec.Rel, error) {
	rd := rel.reader(need)
	var rows []value.Row
	err := mapreduce.ReadDir(x.ms.cluster, rel.dir, func(_, rec string) error {
		row := make(value.Row, rel.schema.Len())
		rows = append(rows, row)
		return rd.decode(row, rec)
	})
	return exec.RowRel(rel.schema, rows, need), err
}

// mrAggregate runs the block's aggregate as one map-reduce job and decodes
// the reducer output into the group table exec finalises over AggSchema.
// The map side is Hive's map-side aggregation: a task keeps the rows of its
// split that pass the relation's pending filters, folds them through exec's
// group table at the end of the split and emits one partial per group,
// which the reducers merge.
func (x *Executor) mrAggregate(blk *exec.Block, rel *interRel) (exec.Rel, error) {
	groupBy, aggs := blk.GroupBy, blk.Aggs
	pending, err := rel.takePending()
	if err != nil {
		return exec.Rel{}, err
	}
	es := append([]expr.Expr{pending}, groupBy...)
	for _, a := range aggs {
		es = append(es, a.Arg)
	}
	w := rel.schema.Len()
	rd, aggReads := rel.reader(reads(w, es...)), reads(w, es[1:]...)
	newMapper := func() mapreduce.Mapper {
		var rows []value.Row
		var slab value.Row // rows are cut from slabs of 256
		return mapreduce.Mapper{
			Map: func(_, rec string, _ func(k, v string)) error {
				if len(slab) < w {
					slab = make(value.Row, 256*w)
				}
				row := slab[:w:w]
				if err := rd.decode(row, rec); err != nil {
					return err
				}
				if pending != nil {
					if ok, err := expr.Truthy(pending, row); err != nil || !ok {
						return err
					}
				}
				slab, rows = slab[w:], append(rows, row)
				return nil
			},
			Cleanup: func(emit func(k, v string)) error {
				agg := exec.ParallelHashAggregate{In: exec.RowRel(rel.schema, rows, aggReads), GroupBy: groupBy, Aggs: aggs}
				pt, err := agg.Partial()
				if err != nil {
					return err
				}
				for _, g := range pt.Groups {
					emit(EncodeKey(g.Key), string(appendStates(nil, g.States)))
				}
				return nil
			},
		}
	}
	out := x.tmpDir()
	job := &mapreduce.Job{
		Name:      "groupby",
		Inputs:    []string{rel.dir},
		Output:    out,
		NewMapper: newMapper,
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			acc := newStates(aggs)
			for _, v := range values {
				if err := foldStates(acc, v); err != nil {
					return err
				}
			}
			emit(key, string(appendStates(nil, acc)))
			return nil
		},
	}
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	if _, err := x.mr.RunCtx(context.Background(), job); err != nil {
		return exec.Rel{}, err
	}
	defer func() { _ = x.ms.cluster.Remove(out) }()

	groups := &exec.AggPartial{}
	keyCols := blk.AggSchema.Cols[:len(groupBy)]
	err = mapreduce.ReadDir(x.ms.cluster, out, func(key, v string) error {
		row, err := decodeKey(key, keyCols)
		if err != nil {
			return err
		}
		acc := newStates(aggs)
		if err := foldStates(acc, v); err != nil {
			return err
		}
		groups.Append(&exec.AggGroup{Key: row, States: acc})
		return nil
	})
	if err != nil {
		return exec.Rel{}, err
	}
	return groups.Finalize(blk.AggSchema, aggs, len(groupBy) == 0)
}

func newStates(aggs []exec.AggSpec) []*exec.AggState {
	acc := make([]*exec.AggState, len(aggs))
	for i, a := range aggs {
		acc[i] = exec.NewAggState(a.Func, false)
	}
	return acc
}

// appendStates appends an aggregate job's shuffle value: one
// exec.AppendAggState per aggregate.
func appendStates(buf []byte, states []*exec.AggState) []byte {
	for _, st := range states {
		buf = exec.AppendAggState(buf, st)
	}
	return buf
}

// foldStates merges the states of a shuffle value into acc, one per
// aggregate.
func foldStates(acc []*exec.AggState, v string) error {
	b := []byte(v)
	for _, a := range acc {
		st, n, err := exec.DecodeAggState(b)
		if err != nil {
			return fmt.Errorf("hive: partial: %w", err)
		}
		a.Merge(&st)
		b = b[n:]
	}
	if len(b) != 0 {
		return fmt.Errorf("hive: partial: %d trailing bytes", len(b))
	}
	return nil
}
