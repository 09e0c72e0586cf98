package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// aggSchema is the input of TestAggregateMatchesReference's case list: s a
// dictionary-coded VARCHAR, i BIGINT, d DOUBLE, x a mixed-kind column (boxed
// Vals in a batch), p a pruned column, v BIGINT.
var aggSchema = value.NewSchema(
	value.Column{Name: "s", Kind: value.KindVarchar},
	value.Column{Name: "i", Kind: value.KindInt},
	value.Column{Name: "d", Kind: value.KindDouble},
	value.Column{Name: "x", Kind: value.KindInt},
	value.Column{Name: "p", Kind: value.KindInt},
	value.Column{Name: "v", Kind: value.KindInt},
)

// aggRow is one input row: s (nil = NULL), i, d and x (value.Null = NULL), v.
type aggRow struct {
	s       *string
	i, d, x value.Value
	v       int64
}

func str(s string) *string { return &s }

// aggBatch builds rows as one batch whose s is coded against its own Dict
// (entries in the order given, so two batches of the same strings get two
// dictionaries), whose p is pruned and whose selection skips a junk row
// before each live one.
func aggBatch(dict []string, rows []aggRow) *value.Batch {
	n := 2 * len(rows)
	b := &value.Batch{Schema: aggSchema, Cols: make([]value.Vec, 6), N: n}
	s, i, d, x, p, v := &b.Cols[0], &b.Cols[1], &b.Cols[2], &b.Cols[3], &b.Cols[4], &b.Cols[5]
	s.Kind, s.Dict, s.Codes = value.KindVarchar, dict, make([]uint32, n)
	i.Kind, i.Ints = value.KindInt, make([]int64, n)
	d.Kind, d.Floats = value.KindDouble, make([]float64, n)
	x.Kind, x.Vals = value.KindInt, make([]value.Value, n)
	p.Kind, p.Pruned = value.KindInt, true
	v.Kind, v.Ints = value.KindInt, make([]int64, n)
	code := map[string]uint32{}
	for c, e := range dict {
		code[e] = uint32(c)
	}
	for k, r := range rows {
		at := 2*k + 1
		b.Sel = append(b.Sel, int32(at))
		// The junk row: values no live row groups with, 0 for v.
		i.Ints[2*k], d.Floats[2*k], x.Vals[2*k] = -99, -99, value.NewString("junk")
		if r.s == nil {
			s.EnsureNulls(n)
			s.SetNull(at)
		} else {
			s.Codes[at] = code[*r.s]
		}
		if r.i.IsNull() {
			i.EnsureNulls(n)
			i.SetNull(at)
		} else {
			i.Ints[at] = r.i.I
		}
		if r.d.IsNull() {
			d.EnsureNulls(n)
			d.SetNull(at)
		} else {
			d.Floats[at] = r.d.F
		}
		x.Vals[at], v.Ints[at] = r.x, r.v
	}
	return b
}

// referenceAggregate is the row-at-a-time hash aggregate: per row, in order,
// the keys by Eval, the group by a linear Compare scan, then each argument
// by Eval into AggState.Add; the first error ends it. It returns the
// finalised groups and each group's first row.
func referenceAggregate(rows []value.Row, keys []expr.Expr, aggs []AggSpec, global bool) ([]value.Row, []int64, error) {
	type group struct {
		key   value.Row
		st    []*AggState
		first int64
	}
	var groups []*group
	for r, row := range rows {
		key := make(value.Row, len(keys))
		for c, e := range keys {
			v, err := e.Eval(row)
			if err != nil {
				return nil, nil, err
			}
			key[c] = v
		}
		var g *group
		for _, cand := range groups {
			if value.KeysEqual(cand.key, key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key, first: int64(r)}
			for _, a := range aggs {
				g.st = append(g.st, NewAggState(a.Func, a.Distinct))
			}
			groups = append(groups, g)
		}
		for j, a := range aggs {
			if a.Arg == nil {
				g.st[j].Count++
				g.st[j].HasVal = true
				continue
			}
			v, err := a.Arg.Eval(row)
			if err != nil {
				return nil, nil, err
			}
			g.st[j].Add(v)
		}
	}
	if len(groups) == 0 && global {
		g := &group{}
		for _, a := range aggs {
			g.st = append(g.st, NewAggState(a.Func, a.Distinct))
		}
		groups = append(groups, g)
	}
	var out []value.Row
	var firsts []int64
	for _, g := range groups {
		row := append(value.Row{}, g.key...)
		for j, a := range aggs {
			v, err := g.st[j].Result(a.Func)
			if err != nil {
				return nil, nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
		firsts = append(firsts, g.first)
	}
	return out, firsts, nil
}

// renderExact renders rows with each value's kind and every DOUBLE as its
// IEEE bits, so −0.0 differs from 0.0 and NaN payloads from each other.
func renderExact(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.K == value.KindDouble {
				fmt.Fprintf(&b, "%v:%#x ", v.K, math.Float64bits(v.F))
			} else {
				fmt.Fprintf(&b, "%v:%v ", v.K, v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestAggregateMatchesReference's case list: the typed key and argument
// forms against the row-at-a-time reference. Each case's input is two
// batches whose VARCHAR column has a different Dict, read as batches
// (morsel sizes 2, 3 and the default, widths 1 and 4, and as one morsel's
// two segments; a 2-row morsel has fewer rows than a Dict's 3 entries, so
// its rows hash their strings instead of the Dict's memo) and as rows (transposed a morsel at a time); every form must
// give the reference's groups, keys (first-seen payloads), states and
// First, or its error.
func checkAggregateCases(t *testing.T) {
	col := func(name string) expr.Expr { return bound(t, name, aggSchema) }
	nan2 := value.NewDouble(math.Float64frombits(0xfff8000000000001))
	big := int64(1) << 53
	first := []aggRow{
		{str("a"), value.NewInt(big), value.NewDouble(math.Copysign(0, -1)), value.NewInt(1), 1},
		{str("b"), value.NewInt(big + 1), value.NewDouble(math.NaN()), value.NewDouble(2.5), 2},
		{nil, value.Null, value.Null, value.Null, 3},
		{str("c"), value.NewInt(big), value.NewDouble(0), value.NewString("q"), 4},
		{str("a"), value.NewInt(7), value.NewDouble(1.5), value.NewInt(1), 5},
	}
	second := []aggRow{
		{str("c"), value.NewInt(big + 1), nan2, value.NewDouble(2.5), 6},
		{str("a"), value.Null, value.NewDouble(0), value.NewInt(1), 7},
		{str("zz"), value.NewInt(7), value.Null, value.Null, 8},
		{nil, value.NewInt(big), value.NewDouble(math.Copysign(0, -1)), value.NewString("q"), 9},
	}
	batches := []*value.Batch{aggBatch([]string{"a", "b", "c"}, first), aggBatch([]string{"zz", "c", "a"}, second)}
	plainAggs := []AggSpec{
		{Func: "SUM", Arg: col("v")}, {Func: "SUM", Arg: col("d")}, {Func: "COUNT"}, {Func: "COUNT", Arg: col("i")},
		{Func: "AVG", Arg: bind(t, expr.Bin(expr.OpMul, expr.Col("v"), expr.Lit(value.NewDouble(0.5))), aggSchema)},
		{Func: "SUM", Arg: bind(t, expr.Bin(expr.OpAdd, expr.Col("i"), expr.Col("v")), aggSchema)},
		{Func: "VAR", Arg: col("v")}, {Func: "STDDEV", Arg: col("d")},
	}
	boxedAggs := []AggSpec{
		{Func: "MIN", Arg: col("d")}, {Func: "MAX", Arg: col("d")}, {Func: "MAX", Arg: col("s")},
		{Func: "COUNT", Arg: col("d"), Distinct: true}, {Func: "SUM", Arg: col("x")}, {Func: "COUNT", Arg: col("p")},
		{Func: "MIN", Arg: col("x")}, {Func: "SUM", Arg: col("i"), Distinct: true},
	}
	divV := func() expr.Expr {
		return bind(t, expr.Bin(expr.OpDiv, expr.Int(30), expr.Bin(expr.OpSub, expr.Col("v"), expr.Int(3))), aggSchema)
	}
	castOf := func(name string) expr.Expr {
		return bind(t, &expr.Cast{E: expr.Col(name), To: value.KindInt}, aggSchema)
	}
	cases := []struct {
		name    string
		keys    []expr.Expr
		aggs    []AggSpec
		wantErr string
	}{
		{"dictionary key, Dict per batch", []expr.Expr{col("s")}, plainAggs, ""},
		{"dictionary key, boxed arguments", []expr.Expr{col("s")}, boxedAggs, ""},
		{"BIGINT 2^53 and 2^53+1", []expr.Expr{col("i")}, plainAggs, ""},
		{"DOUBLE -0, 0 and NaN", []expr.Expr{col("d")}, boxedAggs, ""},
		{"every key form", []expr.Expr{col("s"), col("i"), col("d"), col("x"), col("p")}, plainAggs, ""},
		{"boxed and pruned keys", []expr.Expr{col("x"), col("p")}, boxedAggs, ""},
		{"computed keys", []expr.Expr{bind(t, expr.Bin(expr.OpMul, expr.Col("v"), expr.Int(0)), aggSchema), bind(t, caseOf(expr.Col("i")), aggSchema)}, plainAggs, ""},
		{"global", nil, append(append([]AggSpec{}, plainAggs...), boxedAggs...), ""},
		// The third row (v = 3) divides by zero; CAST(s AS BIGINT) fails on
		// the first ("a"), CAST(x AS BIGINT) on the fourth ("q").
		{"argument before a failing key", []expr.Expr{col("i"), castOf("x")}, []AggSpec{{Func: "SUM", Arg: divV()}}, "division by zero"},
		{"key before a failing argument", []expr.Expr{col("i"), castOf("s")}, []AggSpec{{Func: "SUM", Arg: divV()}}, `cannot cast "a"`},
		{"later key on an earlier row", []expr.Expr{castOf("x"), castOf("s")}, []AggSpec{{Func: "COUNT"}}, `cannot cast "a"`},
		{"later argument on an earlier row", []expr.Expr{col("i")}, []AggSpec{{Func: "SUM", Arg: col("v")}, {Func: "SUM", Arg: divV()}, {Func: "MAX", Arg: castOf("s")}}, `cannot cast "a"`},
		{"earlier argument on an earlier row", []expr.Expr{col("s")}, []AggSpec{{Func: "SUM", Arg: divV()}, {Func: "MAX", Arg: castOf("x")}}, "division by zero"},
	}

	var rows []value.Row
	for _, b := range batches {
		rows = append(rows, b.MaterializeRows()...)
	}
	for _, tc := range cases {
		global := len(tc.keys) == 0
		wantRows, wantFirst, wantErr := referenceAggregate(rows, tc.keys, tc.aggs, global)
		if (wantErr != nil) != (tc.wantErr != "") || wantErr != nil && !strings.Contains(wantErr.Error(), tc.wantErr) {
			t.Fatalf("%s: the reference fails with %v, want %q", tc.name, wantErr, tc.wantErr)
		}
		want := renderExact(wantRows)
		check := func(form string, pt *AggPartial, err error) {
			t.Helper()
			if wantErr != nil || err != nil {
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Errorf("%s, %s: error %v, want %v", tc.name, form, err, wantErr)
				}
				return
			}
			got, err := pt.Finalize(nil, tc.aggs, global)
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, form, err)
			}
			if g := renderExact(got.AllRows()); g != want {
				t.Errorf("%s, %s:\n%s\nwant\n%s", tc.name, form, g, want)
				return
			}
			for k, g := range pt.Groups {
				if g.First != wantFirst[k] {
					t.Errorf("%s, %s: group %v first at row %d, want %d", tc.name, form, g.Key, g.First, wantFirst[k])
				}
			}
		}
		es := append(append([]expr.Expr{}, tc.keys...), argsOf(tc.aggs)...)
		for _, in := range []struct {
			name string
			rel  Rel
		}{{"batches", Rel{Schema: aggSchema, Batches: batches}}, {"RowRel", RowRel(aggSchema, rows, nil)}} {
			for _, pool := range []*Pool{NewPool(1), NewPool(4)} {
				for _, size := range []int{2, 3, 0} {
					h := &ParallelHashAggregate{In: in.rel, GroupBy: tc.keys, Aggs: tc.aggs, Pool: pool, MorselSize: size}
					pt, err := h.Partial()
					check(fmt.Sprintf("%s, width %d, morsel size %d", in.name, pool.Size(), size), pt, err)
				}
			}
		}
		// One morsel, its two batches of different dictionaries as two
		// segments: the form the default morsel size gives, called direct.
		segs := []segment{{b: batches[0], lo: 0, hi: batches[0].Len()}, {b: batches[1], lo: 0, hi: batches[1].Len()}}
		pt, err := aggregateMorsel(segs, 0, es, tc.aggs, len(tc.keys))
		check("one morsel of two segments", pt, err)
	}
}

func argsOf(aggs []AggSpec) []expr.Expr {
	out := make([]expr.Expr, len(aggs))
	for i, a := range aggs {
		out[i] = a.Arg
	}
	return out
}
