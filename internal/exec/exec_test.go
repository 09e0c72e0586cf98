package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hana/internal/expr"
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

func drain(t *testing.T, it Iter) []value.Row {
	t.Helper()
	rs, err := Materialize(it)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Data
}

func TestFilterProjectLimit(t *testing.T) {
	s := intSchema("a", "b")
	in := NewSlice(s, rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30}, []int64{4, 40}))
	f := &BatchFilter{In: &Batches{In: in}, Pred: bind(t, expr.Bin(expr.OpGt, expr.Col("a"), expr.Int(1)), s)}
	proj := &BatchProject{
		In:    f,
		Exprs: []expr.Expr{bind(t, expr.Bin(expr.OpAdd, expr.Col("a"), expr.Col("b")), s)},
		Out:   intSchema("sum"),
	}
	lim := &Limit{In: proj, N: 2}
	got := drain(t, lim)
	if len(got) != 2 || got[0][0].Int() != 22 || got[1][0].Int() != 33 {
		t.Fatalf("got %v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	s := intSchema("a")
	in := NewSlice(s, rowsOf([]int64{1}, []int64{2}, []int64{3}, []int64{4}))
	got := drain(t, &Limit{In: in, N: 2, Offset: 1})
	if len(got) != 2 || got[0][0].Int() != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestSortMultiKey(t *testing.T) {
	s := intSchema("a", "b")
	in := NewSlice(s, rowsOf([]int64{1, 2}, []int64{2, 1}, []int64{1, 1}, []int64{2, 2}))
	srt := &Sort{In: in, Keys: []SortKey{
		{E: bind(t, expr.Col("a"), s)},
		{E: bind(t, expr.Col("b"), s), Desc: true},
	}}
	got := drain(t, srt)
	want := [][2]int64{{1, 2}, {1, 1}, {2, 2}, {2, 1}}
	for i, w := range want {
		if got[i][0].Int() != w[0] || got[i][1].Int() != w[1] {
			t.Fatalf("row %d = %v want %v", i, got[i], w)
		}
	}
}

func TestDistinct(t *testing.T) {
	s := intSchema("a")
	in := NewSlice(s, rowsOf([]int64{1}, []int64{2}, []int64{1}, []int64{3}, []int64{2}))
	got := drain(t, &Distinct{In: in})
	if len(got) != 3 {
		t.Fatalf("distinct = %v", got)
	}
}

func TestHashJoinInner(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	got, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, JoinInner,
		JoinSide{Rows: rowsOf([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})},
		JoinSide{Rows: rowsOf([]int64{2, 200}, []int64{3, 300}, []int64{3, 301}, []int64{5, 500})},
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)}, nil, rs.Len())
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
	got, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, JoinLeftOuter,
		JoinSide{Rows: rowsOf([]int64{1}, []int64{2})}, JoinSide{Rows: rowsOf([]int64{2, 20})},
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)}, nil, rs.Len())
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
			// rightWidth is ignored: the output has the probe side's columns.
			got, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, kind,
				JoinSide{Rows: probe}, JoinSide{Rows: tc.build}, lk, rk, nil, rs.Len())
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%s join against %v = %v, want %s", kind, tc.build, got, want)
			}
		}
	}
	residual := bind(t, expr.Bin(expr.OpLt, expr.Col("l.k"), expr.Col("r.k")), ls.Concat(rs))
	if _, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, JoinSemi,
		JoinSide{Rows: probe}, JoinSide{Rows: probe}, lk, rk, residual, rs.Len()); err == nil {
		t.Error("a semi join with a residual must be rejected")
	}
}

func TestHashJoinResidual(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	got, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, JoinInner,
		JoinSide{Rows: rowsOf([]int64{1, 5}, []int64{1, 50})}, JoinSide{Rows: rowsOf([]int64{1, 10})},
		[]expr.Expr{bind(t, expr.Col("l.k"), ls)}, []expr.Expr{bind(t, expr.Col("r.k"), rs)},
		bind(t, expr.Bin(expr.OpLt, expr.Col("l.v"), expr.Col("r.v")), ls.Concat(rs)), rs.Len())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[[1, 5, 1, 10]]" {
		t.Fatalf("residual join = %v", got)
	}
}

func TestNestedLoopJoinKinds(t *testing.T) {
	ls := intSchema("l.a")
	rs := intSchema("r.b")
	concat := ls.Concat(rs)
	on := bind(t, expr.Bin(expr.OpLt, expr.Col("l.a"), expr.Col("r.b")), concat)
	nl := &NestedLoopJoin{
		Kind:  JoinInner,
		Left:  NewSlice(ls, rowsOf([]int64{1}, []int64{5})),
		Right: NewSlice(rs, rowsOf([]int64{2}, []int64{6})),
		On:    on,
	}
	got := drain(t, nl)
	if len(got) != 3 { // 1<2, 1<6, 5<6
		t.Fatalf("nl inner = %v", got)
	}
	// Cross join (nil predicate).
	cross := &NestedLoopJoin{
		Kind:  JoinInner,
		Left:  NewSlice(ls, rowsOf([]int64{1}, []int64{2})),
		Right: NewSlice(rs, rowsOf([]int64{3}, []int64{4})),
	}
	if len(drain(t, cross)) != 4 {
		t.Fatal("cross join")
	}
	// Left outer with no matches null-extends.
	outer := &NestedLoopJoin{
		Kind:  JoinLeftOuter,
		Left:  NewSlice(ls, rowsOf([]int64{9})),
		Right: NewSlice(rs, rowsOf([]int64{2})),
		On:    bind(t, expr.Bin(expr.OpLt, expr.Col("l.a"), expr.Col("r.b")), concat),
	}
	og := drain(t, outer)
	if len(og) != 1 || !og[0][1].IsNull() {
		t.Fatalf("nl outer = %v", og)
	}
}

func TestHashAggregateGroups(t *testing.T) {
	s := intSchema("g", "v")
	in := NewSlice(s, rowsOf(
		[]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 5}, []int64{1, 2}))
	agg := &ParallelHashAggregate{
		In:      in,
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
	got := drain(t, agg)
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
		In:   NewSlice(s, nil),
		Aggs: []AggSpec{{Func: "COUNT"}, {Func: "SUM", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("c", "s"),
	}
	got := drain(t, agg)
	if len(got) != 1 || got[0][0].Int() != 0 || !got[0][1].IsNull() {
		t.Fatalf("global empty agg = %v", got)
	}
}

func TestAggregateDistinctAndNulls(t *testing.T) {
	s := intSchema("v")
	rows := rowsOf([]int64{1}, []int64{1}, []int64{2})
	rows = append(rows, value.Row{value.Null})
	agg := &ParallelHashAggregate{
		In: NewSlice(s, rows),
		Aggs: []AggSpec{
			{Func: "COUNT", Arg: bind(t, expr.Col("v"), s), Distinct: true},
			{Func: "COUNT", Arg: bind(t, expr.Col("v"), s)},
			{Func: "COUNT"},
		},
		Out: intSchema("cd", "c", "cs"),
	}
	got := drain(t, agg)
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
	in := NewSlice(s, rowsOf([]int64{2}, []int64{4}, []int64{4}, []int64{4}, []int64{5}, []int64{5}, []int64{7}, []int64{9}))
	agg := &ParallelHashAggregate{
		In:   in,
		Aggs: []AggSpec{{Func: "STDDEV", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("sd"),
	}
	got := drain(t, agg)
	if sd := got[0][0].Float(); sd < 1.99 || sd > 2.01 {
		t.Fatalf("stddev = %v", sd)
	}
}

func TestErrorIterPropagates(t *testing.T) {
	e := errors.New("boom")
	f := &BatchFilter{In: &Batches{In: Error(e)}}
	_, _, err := f.Next()
	if !errors.Is(err, e) {
		t.Fatalf("err = %v", err)
	}
}

func TestRename(t *testing.T) {
	s := intSchema("a")
	r := Rename(NewSlice(s, rowsOf([]int64{1})), intSchema("x.a"))
	if r.Schema().Cols[0].Name != "x.a" {
		t.Fatal("rename schema")
	}
	bad := Rename(NewSlice(s, nil), intSchema("a", "b"))
	if _, _, err := bad.Next(); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

func TestSumIntegerStaysInteger(t *testing.T) {
	s := intSchema("v")
	agg := &ParallelHashAggregate{
		In:   NewSlice(s, rowsOf([]int64{1}, []int64{2})),
		Aggs: []AggSpec{{Func: "SUM", Arg: bind(t, expr.Col("v"), s)}},
		Out:  intSchema("s"),
	}
	got := drain(t, agg)
	if got[0][0].K != value.KindInt || got[0][0].Int() != 3 {
		t.Fatalf("integer sum = %v", got[0][0])
	}
}
