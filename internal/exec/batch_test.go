package exec

import (
	"reflect"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-vs-row equivalence: Filter and project must keep and compute exactly
// what expr.Truthy and Expr.Eval give row by row, on small batches and on
// RowRel's.

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

// inputs are rows as a relation cut into 5-row batches, so operator
// behavior at batch boundaries is exercised, and as RowRel cuts them.
func inputs(s *value.Schema, rows []value.Row) map[string]Rel {
	var bs []*value.Batch
	for lo := 0; lo < len(rows); lo += 5 {
		bs = append(bs, value.BatchFromRows(s, rows[lo:min(lo+5, len(rows))], nil))
	}
	return map[string]Rel{
		"small batches": {Schema: s, Batches: bs},
		"RowRel":        RowRel(s, rows, nil),
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
		// Only Eval computes it; it reads two of the batch's three columns.
		expr.Bin(expr.OpConcat, expr.Col("s"), expr.Col("g")),
	}
	for _, e := range exprs {
		bind(t, e, s)
	}
	out := value.NewSchema(
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "g2", Kind: value.KindInt},
		value.Column{Name: "v2", Kind: value.KindDouble},
		value.Column{Name: "sg", Kind: value.KindVarchar},
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
		for _, b := range in.Batches {
			pb, err := project(b, exprs, out)
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

// RowRel transposes only the columns its needed mask names; the others are
// pruned and read as NULL, as from a store's ReadBatch.
func TestBatchesTransposeOnlyNeededColumns(t *testing.T) {
	s := mixedSchema()
	rows := mixedRows()
	b := RowRel(s, rows, []bool{false, true, false}).Batches[0]
	if b.Len() != len(rows) || !b.Cols[0].Pruned || b.Cols[1].Pruned || !b.Cols[2].Pruned {
		t.Fatalf("batch of %d rows, pruned = %v %v %v", b.Len(), b.Cols[0].Pruned, b.Cols[1].Pruned, b.Cols[2].Pruned)
	}
	for i, r := range b.MaterializeRows() {
		if want := (value.Row{value.Null, rows[i][1], value.Null}); !reflect.DeepEqual(r, want) {
			t.Fatalf("row %d = %v, want %v", i, r, want)
		}
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
