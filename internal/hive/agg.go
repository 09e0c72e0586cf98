package hive

import (
	"context"

	"fmt"
	"math"
	"strconv"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/mapreduce"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// finish runs the block's back end. The aggregate is this processor's own —
// a map-reduce job with combiners, or, for DISTINCT aggregates, whose
// partials cannot merge, the shared hash aggregate over the materialized
// relation — and the stages after it are exec.Block.Finish in the driver, as
// Hive's final single-reducer stages are.
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
		rows, err := x.materialize(rel)
		if err != nil {
			return nil, err
		}
		in = exec.Rel{Schema: rows.Schema, Rows: rows.Data}
		if blk.Aggregates() {
			agg := &exec.ParallelHashAggregate{In: in, GroupBy: blk.GroupBy, Aggs: blk.Aggs, Out: blk.AggSchema}
			if in, err = agg.Run(); err != nil {
				return nil, err
			}
		}
	} else {
		rows, err := x.mrAggregate(blk, rel)
		if err != nil {
			return nil, err
		}
		in = exec.Rel{Schema: blk.AggSchema, Rows: rows}
	}
	return blk.Finish(in)
}

// materialize reads the relation applying pending filters driver-side.
func (x *Executor) materialize(rel *interRel) (*value.Rows, error) {
	rows, err := x.ms.ReadDir(rel.dir, rel.schema)
	if err != nil {
		return nil, err
	}
	if len(rel.pending) == 0 {
		return rows, nil
	}
	pred, err := expr.BindClone(expr.And(expr.CloneAll(rel.pending)...), rel.schema)
	if err != nil {
		return nil, err
	}
	kept := rows.Data[:0]
	for _, r := range rows.Data {
		ok, err := expr.Truthy(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	rows.Data = kept
	return rows, nil
}

// mrAggregate runs the block's aggregate as a map-reduce job with a combiner
// and decodes the reducer output into [groups…, aggs…] rows.
func (x *Executor) mrAggregate(blk *exec.Block, rel *interRel) ([]value.Row, error) {
	groupBy, aggs := blk.GroupBy, blk.Aggs
	var pending expr.Expr
	if len(rel.pending) > 0 {
		var err error
		if pending, err = expr.BindClone(expr.And(expr.CloneAll(rel.pending)...), rel.schema); err != nil {
			return nil, err
		}
		rel.pending = nil
	}

	schema := rel.schema
	mapper := func(line string, emit func(k, v string)) {
		row, err := DecodeRow(line, schema)
		if err != nil {
			return
		}
		if pending != nil {
			ok, err := expr.Truthy(pending, row)
			if err != nil || !ok {
				return
			}
		}
		keyVals := make([]value.Value, len(groupBy))
		for i, g := range groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return
			}
			keyVals[i] = v
		}
		partials := make([]string, len(aggs))
		for i, a := range aggs {
			st := exec.NewAggState(a.Func, false)
			if a.Arg == nil { // COUNT(*)
				st.Count = 1
				st.HasVal = true
			} else {
				v, err := a.Arg.Eval(row)
				if err != nil {
					return
				}
				st.Add(v)
			}
			partials[i] = encodePartial(st)
		}
		emit(EncodeKey(keyVals), strings.Join(partials, "\x02"))
	}
	merge := func(key string, values []string, emit func(k, v string)) {
		acc := make([]*exec.AggState, len(aggs))
		for i, a := range aggs {
			acc[i] = exec.NewAggState(a.Func, false)
		}
		for _, v := range values {
			parts := strings.Split(v, "\x02")
			if len(parts) != len(aggs) {
				continue
			}
			for i, ps := range parts {
				st, err := decodePartial(ps)
				if err != nil {
					continue
				}
				acc[i].Merge(&st)
			}
		}
		out := make([]string, len(aggs))
		for i, st := range acc {
			out[i] = encodePartial(st)
		}
		emit(key, strings.Join(out, "\x02"))
	}

	out := x.tmpDir()
	job := &mapreduce.Job{
		Name:    "groupby",
		Inputs:  []string{rel.dir},
		Output:  out,
		Map:     mapper,
		Combine: merge,
		Reduce:  merge,
	}
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	if _, err := x.mr.RunCtx(context.Background(), job); err != nil {
		return nil, err
	}
	defer func() { _ = x.ms.cluster.Remove(out) }()

	var rows []value.Row
	for _, fi := range x.ms.cluster.List(out) {
		data, err := x.ms.cluster.ReadFile(fi.Path)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if line == "" {
				continue
			}
			var keyPart, valPart string
			if len(groupBy) > 0 {
				i := strings.IndexByte(line, '\t')
				if i < 0 {
					continue
				}
				keyPart, valPart = line[:i], line[i+1:]
			} else {
				// Global aggregate: reducer key is the empty group.
				valPart = strings.TrimPrefix(line, "\t")
			}
			row := make(value.Row, 0, blk.AggSchema.Len())
			if len(groupBy) > 0 {
				for i, part := range strings.Split(keyPart, "\x01") {
					s, isNull := decodeField(part)
					if isNull {
						row = append(row, value.Null)
						continue
					}
					v, err := parseTyped(s, blk.AggSchema.Cols[i].Kind)
					if err != nil {
						return nil, err
					}
					row = append(row, v)
				}
			}
			for i, ps := range strings.Split(valPart, "\x02") {
				st, err := decodePartial(ps)
				if err != nil {
					return nil, err
				}
				v, err := st.Result(aggs[i].Func)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
	}
	// A global aggregate over empty input still yields one row.
	if len(groupBy) == 0 && len(rows) == 0 {
		return exec.NewAggPartial().Rows(aggs, true)
	}
	return rows, nil
}

// encodePartial is the shuffle text form of an aggregate state: every field
// a non-DISTINCT state has (DISTINCT aggregates never shuffle). The exact
// sums travel as their partials' IEEE bits in hex, comma-separated — exact,
// and a fraction of the cost of a shortest-decimal round trip per row and
// aggregate.
func encodePartial(st *exec.AggState) string {
	return strings.Join([]string{
		strconv.FormatInt(st.Count, 10),
		encodeSum(&st.Sum),
		strconv.FormatInt(st.SumI, 10),
		strconv.FormatBool(st.IntOnly),
		strconv.FormatBool(st.HasVal),
		encodeTyped(st.Min),
		encodeTyped(st.Max),
		encodeSum(&st.SumSq),
	}, "\x03")
}

func encodeSum(s *exec.ExactSum) string {
	var ps [4]float64
	var buf [4 * 17]byte
	out := buf[:0]
	for i, p := range s.AppendPartials(ps[:0]) {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendUint(out, math.Float64bits(p), 16)
	}
	return string(out)
}

// decodeSum rebuilds an exact sum by adding each listed partial, so a list
// a task did not write in normal form is renormalized, not trusted.
func decodeSum(field string, s *exec.ExactSum) error {
	if field == "" {
		return nil
	}
	if n := strings.Count(field, ",") + 1; n > exec.MaxPartials {
		return fmt.Errorf("hive: %d partials in one sum, at most %d", n, exec.MaxPartials)
	}
	for _, h := range strings.Split(field, ",") {
		bits, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return err
		}
		s.Add(math.Float64frombits(bits))
	}
	return nil
}

func decodePartial(s string) (exec.AggState, error) {
	parts := strings.Split(s, "\x03")
	if len(parts) != 8 {
		return exec.AggState{}, fmt.Errorf("hive: bad partial %q", s)
	}
	var st exec.AggState
	var err error
	if st.Count, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return st, err
	}
	if err = decodeSum(parts[1], &st.Sum); err != nil {
		return st, err
	}
	if st.SumI, err = strconv.ParseInt(parts[2], 10, 64); err != nil {
		return st, err
	}
	if st.IntOnly, err = strconv.ParseBool(parts[3]); err != nil {
		return st, err
	}
	if st.HasVal, err = strconv.ParseBool(parts[4]); err != nil {
		return st, err
	}
	if st.Min, err = decodeTyped(parts[5]); err != nil {
		return st, err
	}
	if st.Max, err = decodeTyped(parts[6]); err != nil {
		return st, err
	}
	err = decodeSum(parts[7], &st.SumSq)
	return st, err
}

// encodeTyped serializes a value with its kind tag so MIN/MAX round-trip.
func encodeTyped(v value.Value) string {
	if v.IsNull() {
		return "n"
	}
	switch v.K {
	case value.KindInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case value.KindDouble:
		return "d" + strconv.FormatUint(math.Float64bits(v.F), 16)
	case value.KindDate:
		return "D" + strconv.FormatInt(v.I, 10)
	case value.KindTimestamp:
		return "T" + strconv.FormatInt(v.I, 10)
	case value.KindBool:
		return "b" + strconv.FormatInt(v.I, 10)
	default:
		return "s" + v.S
	}
}

func decodeTyped(s string) (value.Value, error) {
	if s == "" || s == "n" {
		return value.Null, nil
	}
	body := s[1:]
	switch s[0] {
	case 'i':
		i, err := strconv.ParseInt(body, 10, 64)
		return value.NewInt(i), err
	case 'd':
		bits, err := strconv.ParseUint(body, 16, 64)
		return value.NewDouble(math.Float64frombits(bits)), err
	case 'D':
		i, err := strconv.ParseInt(body, 10, 64)
		return value.NewDate(i), err
	case 'T':
		i, err := strconv.ParseInt(body, 10, 64)
		return value.NewTimestamp(i), err
	case 'b':
		i, err := strconv.ParseInt(body, 10, 64)
		return value.NewBool(i != 0), err
	case 's':
		return value.NewString(body), nil
	}
	return value.Null, fmt.Errorf("hive: bad typed value %q", s)
}
