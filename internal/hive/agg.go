package hive

import (
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
	bs, err := readDir(x.ms.cluster, rel.dir, rel.reader(need))
	return exec.Rel{Schema: rel.schema, Batches: bs}, err
}

// mrAggregate runs the block's aggregate as one map-reduce job and decodes
// the reducer output into the group table exec finalises over AggSchema.
// The map side is Hive's map-side aggregation: a task decodes its split a
// morsel at a time into batches of the columns the filters, keys and
// arguments read, keeps the rows that pass the relation's pending filters,
// folds them through exec's group table at the end of the split and emits
// one partial per group, which the reducers merge.
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
	rd := rel.reader(reads(rel.schema.Len(), es...))
	newMapper := func() mapreduce.Mapper {
		in := exec.Rel{Schema: rel.schema}
		return mapreduce.Mapper{
			MapMorsel: func(recs []string, _ func(k, v []byte)) error {
				b, err := rd.filter(recs, pending)
				if err == nil && b.Len() > 0 {
					in.Batches = append(in.Batches, b)
				}
				return err
			},
			Cleanup: func(emit func(k, v string)) error {
				agg := exec.ParallelHashAggregate{In: in, GroupBy: groupBy, Aggs: aggs}
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
	if err := x.run(job); err != nil {
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
