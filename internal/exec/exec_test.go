package exec

import (
	"context"
	"fmt"
	"testing"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

func intSchema(names ...string) *value.Schema {
	cols := make([]value.Column, len(names))
	for i, n := range names {
		cols[i] = value.Column{Name: n, Kind: value.KindInt}
	}
	return value.NewSchema(cols...)
}

func rowsOf(vals ...[]int64) []value.Row {
	out := make([]value.Row, len(vals))
	for i, r := range vals {
		row := make(value.Row, len(r))
		for j, v := range r {
			row[j] = value.NewInt(v)
		}
		out[i] = row
	}
	return out
}

func bind(t *testing.T, e expr.Expr, s *value.Schema) expr.Expr {
	t.Helper()
	if err := expr.Bind(e, s); err != nil {
		t.Fatal(err)
	}
	return e
}

// finish runs blk's back end over in.
func finish(t *testing.T, blk *Block, in Rel) []value.Row {
	t.Helper()
	rs, _, err := blk.Finish(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs.AllRows()
}

// aggregate runs agg and returns its groups.
func aggregate(t *testing.T, agg *ParallelHashAggregate) []value.Row {
	t.Helper()
	out, err := agg.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out.AllRows()
}

func TestFilterProjectLimit(t *testing.T) {
	s := intSchema("a", "b")
	in := RowRel(s, rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40}), nil)
	f, err := Filter(in, bind(t, expr.Bin(expr.OpGt, expr.Col("a"), expr.Int(1)), s))
	if err != nil {
		t.Fatal(err)
	}
	out := intSchema("sum")
	blk := &Block{Out: out, proj: out, limit: 2,
		exprs: []expr.Expr{bind(t, expr.Bin(expr.OpAdd, expr.Col("a"), expr.Col("b")), s)}}
	got := finish(t, blk, f)
	if len(got) != 2 || got[0][0].Int() != 22 || got[1][0].Int() != 33 {
		t.Fatalf("got %v", got)
	}
}

// With neither DISTINCT nor ORDER BY, Finish reads no batch once LIMIT rows
// are out: the division by zero in the second batch is never evaluated.
func TestFinishStopsAtLimit(t *testing.T) {
	s := intSchema("a")
	in := Rel{Schema: s, Batches: []*value.Batch{
		value.BatchFromRows(s, rowsOf([]int64{1}, []int64{2}), nil),
		value.BatchFromRows(s, rowsOf([]int64{0}), nil),
	}}
	out := intSchema("q")
	blk := &Block{Out: out, proj: out, limit: 2,
		exprs: []expr.Expr{bind(t, expr.Bin(expr.OpDiv, expr.Int(10), expr.Col("a")), s)}}
	if got := finish(t, blk, in); fmt.Sprint(got) != "[[10] [5]]" {
		t.Fatalf("got %v", got)
	}
	blk.limit = 3
	if _, _, err := blk.Finish(context.Background(), in, nil); err == nil {
		t.Fatal("LIMIT 3 reads the second batch, which divides by zero")
	}
}

// joinRows is HashJoin on one worker with its output boxed.
func joinRows(kind JoinKind, left, right Rel, lk, rk []expr.Expr, residual expr.Expr) ([]value.Row, error) {
	out, _, err := HashJoin(context.Background(), nil, 0, 0, nil, kind, left, right, lk, rk, residual)
	return out.AllRows(), err
}

func TestHashJoinInner(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	got, err := joinRows(JoinInner,
		RowRel(ls, rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}), nil),
		RowRel(rs, rowsOf([]int64{2, 200}, []int64{3, 300}, []int64{3, 301}, []int64{5, 500}), nil),
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Probe row 3 matches two build rows, in build order.
	if fmt.Sprint(got) != "[[2, 20, 2, 200] [3, 30, 3, 300] [3, 30, 3, 301]]" {
		t.Fatalf("inner join = %v", got)
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	ls := intSchema("l.k")
	rs := intSchema("r.k", "r.v")
	got, err := joinRows(JoinLeftOuter,
		RowRel(ls, rowsOf([]int64{1}, []int64{2}), nil), RowRel(rs, rowsOf([]int64{2, 20}), nil),
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The unmatched probe row null-extends.
	if fmt.Sprint(got) != "[[1, NULL, NULL] [2, 2, 20]]" {
		t.Fatalf("left join = %v", got)
	}
}

// The left-only kinds on one probe side against build sides with repeated
// keys, a NULL key and no rows: semi emits a probe row once, anti keeps
// NULL probe keys, and null-aware anti (NOT IN) follows SQL's three-valued
// logic.
func TestHashJoinSemiAnti(t *testing.T) {
	ls := intSchema("l.k")
	rs := intSchema("r.k")
	probe := append(rowsOf([]int64{1}, []int64{2}, []int64{3}), value.Row{value.Null})
	lk, rk := []expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)}
	for _, tc := range []struct {
		build             []value.Row
		semi, anti, notIn string
	}{
		{rowsOf([]int64{2}, []int64{2}, []int64{3}), "[[2] [3]]", "[[1] [NULL]]", "[[1]]"},
		{append(rowsOf([]int64{2}), value.Row{value.Null}), "[[2]]", "[[1] [3] [NULL]]", "[]"},
		{nil, "[]", "[[1] [2] [3] [NULL]]", "[[1] [2] [3] [NULL]]"},
	} {
		for kind, want := range map[JoinKind]string{JoinSemi: tc.semi, JoinAnti: tc.anti, JoinAntiNullAware: tc.notIn} {
			// The output has the probe side's columns.
			got, err := joinRows(kind, RowRel(ls, probe, nil), RowRel(rs, tc.build, nil), lk, rk, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%s join against %v = %v, want %s", kind, tc.build, got, want)
			}
		}
	}
	residual := bind(t, expr.Bin(expr.OpLt, expr.Col("l.k"), expr.Col("r.k")), ls.Concat(rs))
	if _, err := joinRows(JoinSemi, RowRel(ls, probe, nil), RowRel(rs, probe, nil), lk, rk, residual); err == nil {
		t.Error("a semi join with a residual must be rejected")
	}
}

func TestHashJoinResidual(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	got, err := joinRows(JoinInner,
		RowRel(ls, rowsOf([]int64{1, 5}, []int64{1, 50}), nil), RowRel(rs, rowsOf([]int64{1, 10}), nil),
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)},
		bind(t, expr.Bin(expr.OpLt, expr.Col("l.v"), expr.Col("r.v")), ls.Concat(rs)))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[[1, 5, 1, 10]]" {
		t.Fatalf("residual join = %v", got)
	}
}

// A join with no keys is the nested-loop join: HashJoin with empty key
// lists, its matches decided by the residual alone, at widths 1 and 4.
func TestNestedLoopJoinKinds(t *testing.T) {
	ls := intSchema("l.a")
	rs := intSchema("r.b")
	on := bind(t, expr.Bin(expr.OpLt, expr.Col("l.a"), expr.Col("r.b")), ls.Concat(rs))
	for _, pool := range []*Pool{NewPool(1), NewPool(4)} {
		join := func(kind JoinKind, left, right []value.Row, on expr.Expr) string {
			t.Helper()
			out, _, err := HashJoin(context.Background(), pool, 0, 1, nil, kind, RowRel(ls, left, nil), RowRel(rs, right, nil), nil, nil, on)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(out.AllRows())
		}
		if got := join(JoinInner, rowsOf([]int64{1}, []int64{5}), rowsOf([]int64{2}, []int64{6}), on); got != "[[1, 2] [1, 6] [5, 6]]" {
			t.Fatalf("nl inner = %v", got)
		}
		// Cross join (nil predicate).
		if got := join(JoinInner, rowsOf([]int64{1}, []int64{2}), rowsOf([]int64{3}, []int64{4}), nil); got != "[[1, 3] [1, 4] [2, 3] [2, 4]]" {
			t.Fatalf("cross join = %v", got)
		}
		// Left outer with no matches null-extends.
		if got := join(JoinLeftOuter, rowsOf([]int64{9}), rowsOf([]int64{2}), on); got != "[[9, NULL]]" {
			t.Fatalf("nl outer = %v", got)
		}
		if got := join(JoinLeftOuter, rowsOf([]int64{9}, []int64{1}), nil, nil); got != "[[9, NULL] [1, NULL]]" {
			t.Fatalf("nl outer against no rows = %v", got)
		}
	}
}

func TestHashAggregateGroups(t *testing.T) {
	s := intSchema("g", "v")
	agg := &ParallelHashAggregate{
		In:      RowRel(s, rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 5}, []int64{1, 2}), nil),
		GroupBy: []expr.Expr{bind(t, expr.Col("g"), s)},
		Aggs: []AggSpec{
			{Func: "COUNT"},
			{Func: "SUM", Arg: bind(t, expr.Col("v"), s)},
			{Func: "MIN", Arg: bind(t, expr.Col("v"), s)},
			{Func: "MAX", Arg: bind(t, expr.Col("v"), s)},
			{Func: "AVG", Arg: bind(t, expr.Col("v"), s)},
		},
		Out: intSchema("g", "c", "s", "mn", "mx", "av"),
	}
	got := aggregate(t, agg)
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	byG := map[int64]value.Row{}
	for _, r := range got {
		byG[r[0].Int()] = r
	}
	g1 := byG[1]
	if g1[1].Int() != 3 || g1[2].Int() != 42 || g1[3].Int() != 2 || g1[4].Int() != 30 || g1[5].Float() != 14 {
		t.Fatalf("group 1 = %v", g1)
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	s := intSchema("v")
	agg := &ParallelHashAggregate{
		In:   Rel{Schema: s},
		Aggs: []AggSpec{{Func: "COUNT"}, {Func: "SUM", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("c", "s"),
	}
	got := aggregate(t, agg)
	if len(got) != 1 || got[0][0].Int() != 0 || !got[0][1].IsNull() {
		t.Fatalf("global empty agg = %v", got)
	}
}

func TestAggregateDistinctAndNulls(t *testing.T) {
	s := intSchema("v")
	rows := rowsOf([]int64{1}, []int64{1}, []int64{2})
	rows = append(rows, value.Row{value.Null})
	agg := &ParallelHashAggregate{
		In: RowRel(s, rows, nil),
		Aggs: []AggSpec{
			{Func: "COUNT", Arg: bind(t, expr.Col("v"), s), Distinct: true},
			{Func: "COUNT", Arg: bind(t, expr.Col("v"), s)},
			{Func: "COUNT"},
		},
		Out: intSchema("cd", "c", "cs"),
	}
	got := aggregate(t, agg)
	if got[0][0].Int() != 2 { // COUNT(DISTINCT v) skips NULL
		t.Fatalf("count distinct = %v", got[0][0])
	}
	if got[0][1].Int() != 3 { // COUNT(v) skips NULL
		t.Fatalf("count col = %v", got[0][1])
	}
	if got[0][2].Int() != 4 { // COUNT(*) counts all
		t.Fatalf("count star = %v", got[0][2])
	}
}

func TestAggregateStddev(t *testing.T) {
	s := intSchema("v")
	agg := &ParallelHashAggregate{
		In:   RowRel(s, rowsOf([]int64{2}, []int64{4}, []int64{4}, []int64{4}, []int64{5}, []int64{5}, []int64{7}, []int64{9}), nil),
		Aggs: []AggSpec{{Func: "STDDEV", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("sd"),
	}
	got := aggregate(t, agg)
	if sd := got[0][0].Float(); sd < 1.99 || sd > 2.01 {
		t.Fatalf("stddev = %v", sd)
	}
}

// A statement shipped whole comes back under the source's column names;
// AnalyzeProjected relabels them after the select list by setting the schema.
func TestRename(t *testing.T) {
	sel := &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Expr: expr.Col("a"), Alias: "x"}}, Limit: -1}
	blk, err := AnalyzeProjected(sel, intSchema("t.a"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := blk.Finish(context.Background(), RowRel(intSchema("t.a"), rowsOf([]int64{1}), nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema.Cols[0].Name != "x" || fmt.Sprint(got.AllRows()) != "[[1]]" {
		t.Fatalf("relabelled %v: %v", got.Schema.Names(), got.AllRows())
	}
}

func TestSumIntegerStaysInteger(t *testing.T) {
	s := intSchema("v")
	agg := &ParallelHashAggregate{
		In:   RowRel(s, rowsOf([]int64{1}, []int64{2}), nil),
		Aggs: []AggSpec{{Func: "SUM", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("s"),
	}
	got := aggregate(t, agg)
	if got[0][0].K != value.KindInt || got[0][0].Int() != 3 {
		t.Fatalf("integer sum = %v", got[0][0])
	}
}
