package exec

import (
	"reflect"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-vs-row equivalence: the row operators Filter and Project are the
// reference; FilterIter and ProjectIter must stay byte-identical to them on
// the same input, whether they pick the vectorized batch operator (batch
// producers) or the row one (row producers).

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

// batchInput produces the rows through the batch path, cut into small
// batches so operator behavior at batch boundaries is exercised.
func batchInput(s *value.Schema, rows []value.Row) Iter {
	return &Batches{In: NewSlice(s, rows), Size: 5}
}

func TestFilterIterMatchesRowFilter(t *testing.T) {
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
		want := drain(t, &Filter{In: NewSlice(s, rows), Pred: p})

		viaBatch := FilterIter(batchInput(s, rows), p)
		if _, ok := viaBatch.(*BatchFilter); !ok {
			t.Fatalf("pred %d: FilterIter on a batch producer built %T, want *BatchFilter", i, viaBatch)
		}
		if got := drain(t, viaBatch); !reflect.DeepEqual(got, want) {
			t.Errorf("pred %d: BatchFilter diverged from Filter:\nbatch: %v\nrow:   %v", i, got, want)
		}

		viaRow := FilterIter(NewSlice(s, rows), p)
		if _, ok := viaRow.(*Filter); !ok {
			t.Fatalf("pred %d: FilterIter on a row producer built %T, want *Filter", i, viaRow)
		}
		if got := drain(t, viaRow); !reflect.DeepEqual(got, want) {
			t.Errorf("pred %d: FilterIter row fallback diverged from Filter", i)
		}
	}
}

func TestProjectIterMatchesRowProject(t *testing.T) {
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

	want := drain(t, &Project{In: NewSlice(s, rows), Exprs: exprs, Out: out})

	viaBatch := ProjectIter(batchInput(s, rows), exprs, out)
	if _, ok := viaBatch.(*BatchProject); !ok {
		t.Fatalf("ProjectIter on a batch producer built %T, want *BatchProject", viaBatch)
	}
	if got := drain(t, viaBatch); !reflect.DeepEqual(got, want) {
		t.Errorf("BatchProject diverged from Project:\nbatch: %v\nrow:   %v", got, want)
	}

	viaRow := ProjectIter(NewSlice(s, rows), exprs, out)
	if _, ok := viaRow.(*Project); !ok {
		t.Fatalf("ProjectIter on a row producer built %T, want *Project", viaRow)
	}
	if got := drain(t, viaRow); !reflect.DeepEqual(got, want) {
		t.Errorf("ProjectIter row fallback diverged from Project")
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
	b := value.BatchFromRows(s, modRows(n))
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

// The batch filter must not fall back to per-row work for compilable
// predicates: one NextBatch pass over a morsel allocates a bounded number of
// times (kernel closures, the selection vector) regardless of row count.
func TestBatchFilterSubLinearAllocs(t *testing.T) {
	const n = 4096
	s := intSchema("g", "v")
	rows := modRows(n)
	b := value.BatchFromRows(s, rows)
	pred := expr.Bin(expr.OpAnd,
		expr.Bin(expr.OpGe, expr.Col("g"), expr.Int(1)),
		expr.Bin(expr.OpLt, expr.Col("v"), expr.Int(int64(n/2))))
	if err := expr.Bind(pred, s); err != nil {
		t.Fatal(err)
	}
	kept := 0
	allocs := testing.AllocsPerRun(50, func() {
		b.Sel = nil
		f := &BatchFilter{In: NewBatchSlice(s, []*value.Batch{b}), Pred: pred}
		out, err := f.NextBatch()
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
