package exec

import (
	"reflect"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-vs-row equivalence: Filter and project must keep and compute exactly
// what expr.Truthy and Expr.Eval give row by row, on a batch-backed and on a
// row-backed relation.

func mixedSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "g", Kind: value.KindInt},
		value.Column{Name: "v", Kind: value.KindDouble},
		value.Column{Name: "s", Kind: value.KindVarchar},
	)
}

func mixedRows() []value.Row {
	names := []string{"alpha", "beta", "gamma", "delta"}
	rows := make([]value.Row, 32)
	for i := range rows {
		g := value.NewInt(int64(i % 5))
		v := value.NewDouble(float64(i) * 1.5)
		s := value.NewString(names[i%len(names)])
		if i%7 == 3 {
			g = value.Null
		}
		if i%11 == 5 {
			s = value.Null
		}
		rows[i] = value.Row{g, v, s}
	}
	return rows
}

// inputs are rows as a batch-backed relation cut into 5-row batches, so
// operator behavior at batch boundaries is exercised, and as a row-backed
// one.
func inputs(s *value.Schema, rows []value.Row) map[string]Rel {
	var bs []*value.Batch
	for lo := 0; lo < len(rows); lo += 5 {
		bs = append(bs, value.BatchFromRows(s, rows[lo:min(lo+5, len(rows))], nil))
	}
	return map[string]Rel{
		"small batches": {Schema: s, Batches: bs},
		"row-backed":    {Schema: s, Rows: rows},
	}
}

func TestBatchFilterMatchesTruthyPerRow(t *testing.T) {
	s := mixedSchema()
	rows := mixedRows()
	preds := []expr.Expr{
		expr.Bin(expr.OpGt, expr.Col("g"), expr.Int(1)),
		expr.Bin(expr.OpAnd,
			expr.Bin(expr.OpGe, expr.Col("g"), expr.Int(1)),
			expr.Bin(expr.OpEq, expr.Col("s"), expr.Str("beta"))),
		&expr.IsNull{E: expr.Col("s")},
	}
	for i, p := range preds {
		bind(t, p, s)
		var want []value.Row
		for _, r := range rows {
			ok, err := expr.Truthy(p, r)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				want = append(want, r)
			}
		}
		for name, in := range inputs(s, rows) {
			out, err := Filter(in, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.AllRows(); !reflect.DeepEqual(got, want) {
				t.Errorf("pred %d, %s: Filter diverged from Truthy per row:\nbatch: %v\nrow:   %v", i, name, got, want)
			}
		}
	}
}

func TestBatchProjectMatchesEvalPerRow(t *testing.T) {
	s := mixedSchema()
	rows := mixedRows()
	exprs := []expr.Expr{
		expr.Col("s"),
		expr.Bin(expr.OpAdd, expr.Col("g"), expr.Int(100)),
		expr.Bin(expr.OpMul, expr.Col("v"), expr.Lit(value.NewDouble(2))),
	}
	for _, e := range exprs {
		bind(t, e, s)
	}
	out := value.NewSchema(
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "g2", Kind: value.KindInt},
		value.Column{Name: "v2", Kind: value.KindDouble},
	)
	want := make([]value.Row, len(rows))
	for i, r := range rows {
		want[i] = make(value.Row, len(exprs))
		for j, e := range exprs {
			v, err := e.Eval(r)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = v
		}
	}
	for name, in := range inputs(s, rows) {
		var got []value.Row
		for i := 0; in.batch(i, nil) != nil; i++ {
			pb, err := project(in.batch(i, nil), exprs, out)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pb.MaterializeRows()...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: project diverged from Eval per row:\nbatch: %v\nrow:   %v", name, got, want)
		}
	}
}

// A consumer that names the columns it reads gets only those of a
// row-backed relation as vectors; the others are pruned and read as NULL, as
// from a store's ReadBatch.
func TestBatchesTransposeOnlyNeededColumns(t *testing.T) {
	s := mixedSchema()
	rows := mixedRows()
	b := Rel{Schema: s, Rows: rows}.batch(0, []bool{false, true, false})
	if b.Len() != len(rows) || !b.Cols[0].Pruned || b.Cols[1].Pruned || !b.Cols[2].Pruned {
		t.Fatalf("batch of %d rows, pruned = %v %v %v", b.Len(), b.Cols[0].Pruned, b.Cols[1].Pruned, b.Cols[2].Pruned)
	}
	for i, r := range b.MaterializeRows() {
		if want := (value.Row{value.Null, rows[i][1], value.Null}); !reflect.DeepEqual(r, want) {
			t.Fatalf("row %d = %v, want %v", i, r, want)
		}
	}
}

// The batch-native aggregation morsel reads keys and arguments from the
// vectors: besides the group table itself (bounded by group count), the
// only per-call allocations are the scratch key buffer, the compiled
// kernels and the per-group states — never one row or one boxed slab per
// input row.
func TestAggregateBatchMorselSubLinearAllocs(t *testing.T) {
	const n = 4096
	s := intSchema("g", "v")
	b := value.BatchFromRows(s, modRows(n), nil)
	groupBy := []expr.Expr{expr.Col("g")}
	aggs := []AggSpec{
		{Func: "SUM", Arg: expr.Col("v")},
		{Func: "SUM", Arg: expr.Bin(expr.OpMul, expr.Col("v"), expr.Int(3))},
		{Func: "COUNT"},
	}
	for _, e := range []expr.Expr{groupBy[0], aggs[0].Arg, aggs[1].Arg} {
		if err := expr.Bind(e, s); err != nil {
			t.Fatal(err)
		}
	}
	plan := planBatchAgg(groupBy, aggs)
	segs := []batchSeg{{b: b, lo: 0, hi: b.Len()}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := aggregateBatchMorsel(segs, 0, groupBy, aggs, []int{0}, plan); err != nil {
			t.Fatal(err)
		}
	})
	// 4 groups: a per-row scratch row or boxed slab would cost ≥ n
	// allocations alone.
	if allocs > n/4 {
		t.Errorf("aggregateBatchMorsel allocates %.0f times for %d rows; reads must come from the vectors", allocs, n)
	}
}

// Filter must not fall back to per-row work for compilable predicates: one
// pass over a morsel allocates a bounded number of times (kernel closures,
// the selection vector) regardless of row count.
func TestBatchFilterSubLinearAllocs(t *testing.T) {
	const n = 4096
	s := intSchema("g", "v")
	rows := modRows(n)
	b := value.BatchFromRows(s, rows, nil)
	pred := expr.Bin(expr.OpAnd,
		expr.Bin(expr.OpGe, expr.Col("g"), expr.Int(1)),
		expr.Bin(expr.OpLt, expr.Col("v"), expr.Int(int64(n/2))))
	if err := expr.Bind(pred, s); err != nil {
		t.Fatal(err)
	}
	kept := 0
	allocs := testing.AllocsPerRun(50, func() {
		b.Sel = nil
		out, err := Filter(Rel{Schema: s, Batches: []*value.Batch{b}}, pred)
		if err != nil {
			t.Fatal(err)
		}
		kept = out.Len()
	})
	if kept == 0 {
		t.Fatal("predicate kept no rows")
	}
	if allocs > 16 {
		t.Errorf("BatchFilter.NextBatch allocates %.0f times for %d rows; kernels must not allocate per row", allocs, n)
	}
}
