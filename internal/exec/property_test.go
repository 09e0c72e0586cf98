package exec

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hana/internal/expr"
	"hana/internal/value"
)

// TestHashJoinEquivalentToNestedLoop checks HashJoin on random inputs with
// NULL keys on both sides, and on empty build and probe sides, for every
// kind at morsel size 3, widths 1 and 4, with sides cut by RowRel and as
// selected batches, keys read as columns, numeric kernels and CASE
// expressions, and with and without a residual on the inner and left-outer
// kinds, which also run with no keys. The probe side's second column mixes
// BIGINT and VARCHAR values (a boxed vector once batched), and each side's
// third column is pruned in its batches. Boxed, the output must equal, row
// for row and in order, nestedLoopRows with the equality as a general
// predicate (inner, left outer; the residual alone with no keys) or a naive
// three-valued loop (semi, anti, null-aware anti); a pruned input column
// must stay pruned in the output batches, and the probe ordinals must name
// each output row's probe row.
func TestHashJoinEquivalentToNestedLoop(t *testing.T) {
	ls := intSchema("l.k", "l.v", "l.p")
	rs := intSchema("r.k", "r.v", "r.p")
	concat := ls.Concat(rs)
	on := expr.Eq(bound(t, "l.k", concat), bound(t, "r.k", concat))
	residual := bind(t, expr.Bin(expr.OpGt, expr.Col("r.v"), expr.Bin(expr.OpMul, expr.Col("l.k"), expr.Int(10))), concat)
	// The keys as columns, as numeric kernels and as a CASE only Eval
	// computes: three kinds of reader, one answer.
	keys := map[string][2][]expr.Expr{
		"column": {{bound(t, "l.k", ls)}, {bound(t, "r.k", rs)}},
		"kernel": {{bind(t, expr.Bin(expr.OpAdd, expr.Col("l.k"), expr.Int(0)), ls)}, {bind(t, expr.Bin(expr.OpAdd, expr.Col("r.k"), expr.Int(0)), rs)}},
		"eval":   {{bind(t, caseOf(expr.Col("l.k")), ls)}, {bind(t, caseOf(expr.Col("r.k")), rs)}},
		"none":   {nil, nil},
	}
	pools := []*Pool{NewPool(1), NewPool(4)}

	mkRows := func(keys []uint8, seed int64, mixed bool) []value.Row {
		if len(keys) > 40 {
			keys = keys[:40]
		}
		rng := rand.New(rand.NewSource(seed))
		out := make([]value.Row, len(keys))
		for i, k := range keys {
			kv := value.NewInt(int64(k % 8))
			if k%9 == 0 {
				kv = value.Null
			}
			v := value.NewInt(rng.Int63n(100))
			if mixed && v.I%5 == 0 {
				v = value.NewString(fmt.Sprint("s", v.I))
			}
			out[i] = value.Row{kv, v, value.Null}
		}
		return out
	}
	side := func(s *value.Schema, rows []value.Row, batched bool) Rel {
		if !batched {
			return RowRel(s, rows, nil)
		}
		r := selectedBatches(s, rows, value.Row{value.Null, value.NewInt(-1), value.NewInt(-1)})
		for _, b := range r.Batches {
			b.Cols[2] = value.Vec{Kind: value.KindInt, Pruned: true}
		}
		return r
	}
	reference := func(kind JoinKind, left, right []value.Row, res expr.Expr) ([]value.Row, error) {
		if kind == JoinInner || kind == JoinLeftOuter {
			cond := expr.Expr(on)
			if res != nil {
				cond = expr.And(on, res)
			}
			return nestedLoopRows(kind, left, right, rs.Len(), cond)
		}
		rightNull := false
		for _, r := range right {
			rightNull = rightNull || r[0].IsNull()
		}
		var out []value.Row
		for _, l := range left {
			matched := false
			for _, r := range right {
				matched = matched || !l[0].IsNull() && !r[0].IsNull() && value.Compare(l[0], r[0]) == 0
			}
			keep := !matched
			switch kind {
			case JoinSemi:
				keep = matched
			case JoinAntiNullAware: // l NOT IN (right keys) is TRUE
				keep = len(right) == 0 || !l[0].IsNull() && !matched && !rightNull
			}
			if keep {
				out = append(out, l)
			}
		}
		return out, nil
	}

	for _, kind := range []JoinKind{JoinInner, JoinLeftOuter, JoinSemi, JoinAnti, JoinAntiNullAware} {
		residuals := []expr.Expr{nil}
		if kind == JoinInner || kind == JoinLeftOuter {
			residuals = append(residuals, residual)
		}
		f := func(lkeys, rkeys []uint8) bool {
			left, right := mkRows(lkeys, 1, true), mkRows(rkeys, 2, false)
			for _, res := range residuals {
				want, err := reference(kind, left, right, res)
				if err != nil {
					t.Log(err)
					return false
				}
				// With no keys the join is the nested loop on the residual.
				nested, err := nestedLoopRows(kind, left, right, rs.Len(), res)
				if err != nil {
					t.Log(err)
					return false
				}
				for _, pool := range pools {
					for name, k := range keys {
						if name == "none" && kind != JoinInner && kind != JoinLeftOuter {
							continue
						}
						want := want
						if name == "none" {
							want = nested
						}
						for _, form := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
							out, ords, err := HashJoin(context.Background(), pool, 0, 3, nil, kind,
								side(ls, left, form[0]), side(rs, right, form[1]), k[0], k[1], res)
							got := out.AllRows()
							if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
								t.Logf("%s keys, residual %v, width %d, batched %v: got %v, %v\nwant %v", name, res != nil, pool.Size(), form, got, err, want)
								return false
							}
							if len(ords) != len(got) {
								t.Logf("%d probe ordinals for %d rows", len(ords), len(got))
								return false
							}
							for i, o := range ords {
								if fmt.Sprint(got[i][:2]) != fmt.Sprint(left[o][:2]) {
									t.Logf("row %d %v names probe row %d %v", i, got[i], o, left[o])
									return false
								}
							}
							for _, b := range out.Batches {
								if form[0] && !b.Cols[2].Pruned || form[1] && len(b.Cols) > 3 && !b.Cols[5].Pruned {
									t.Logf("batched %v: a pruned input column was gathered", form)
									return false
								}
							}
						}
					}
				}
			}
			return true
		}
		for _, c := range [][2][]uint8{{nil, nil}, {nil, {1, 9, 2}}, {{1, 9, 2, 3}, nil}} {
			if !f(c[0], c[1]) {
				t.Errorf("%v: empty side case %v failed", kind, c)
			}
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// nestedLoopRows is the row-at-a-time nested-loop join the hash join is
// checked against: each left row meets every right row in order, on, bound
// to the concatenated row (nil = a cross product), keeps a pair when it is
// TRUE, and under JoinLeftOuter a left row that matched none comes out
// once, null-extended by rw NULLs. kind is JoinInner or JoinLeftOuter.
func nestedLoopRows(kind JoinKind, left, right []value.Row, rw int, on expr.Expr) ([]value.Row, error) {
	var out []value.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			row := append(l.Clone(), r...)
			if on != nil {
				ok, err := expr.Truthy(on, row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			out = append(out, row)
		}
		if kind == JoinLeftOuter && !matched {
			out = append(out, append(l.Clone(), make(value.Row, rw)...))
		}
	}
	return out, nil
}

func bound(t *testing.T, name string, s *value.Schema) expr.Expr {
	t.Helper()
	c := expr.Col(name)
	if err := expr.Bind(c, s); err != nil {
		t.Fatal(err)
	}
	return c
}

// selectedBatches is rows as a relation of 5-row batches, so
// morsels straddle batches, whose selection vectors skip a junk row before
// each live one: an operator that read an unselected row would see junk.
func selectedBatches(s *value.Schema, rows []value.Row, junk value.Row) Rel {
	bs := []*value.Batch{}
	for lo := 0; lo < len(rows); lo += 5 {
		var phys []value.Row
		var sel []int32
		for _, r := range rows[lo:min(lo+5, len(rows))] {
			phys = append(phys, junk)
			sel = append(sel, int32(len(phys)))
			phys = append(phys, r)
		}
		b := value.BatchFromRows(s, phys, nil)
		b.Sel = sel
		bs = append(bs, b)
	}
	return Rel{Schema: s, Batches: bs}
}

// caseOf is CASE WHEN e >= 0 THEN e END: an expression only Eval computes.
func caseOf(e expr.Expr) expr.Expr {
	c := &expr.CaseWhen{}
	c.Whens = append(c.Whens, struct{ Cond, Then expr.Expr }{expr.Bin(expr.OpGe, e, expr.Int(0)), expr.Clone(e)})
	return c
}

// TestAggregateMatchesReference cross-checks the hash aggregate against a
// naive reference on random groups, cut by RowRel and as selected batches, at
// morsel size 3 and widths 1 and 4. The keys are a column and a CASE only
// Eval computes; the arguments a numeric kernel (v * 3) and COUNT(*). Both
// forms must give the reference's groups in first-seen order, and an
// argument that divides by zero must fail both with the same error. Then
// the case list of checkAggregateCases (groupby_test.go) runs: every key and
// argument form, NULL, NaN and −0.0 keys, and which error comes first.
func TestAggregateMatchesReference(t *testing.T) {
	s := intSchema("g", "v")
	groupBy := []expr.Expr{bound(t, "g", s), bind(t, caseOf(expr.Bin(expr.OpSub, expr.Col("v"), expr.Int(10))), s)}
	aggs := []AggSpec{
		{Func: "SUM", Arg: bind(t, expr.Bin(expr.OpMul, expr.Col("v"), expr.Int(3)), s)},
		{Func: "COUNT"},
	}
	run := func(in Rel, aggs []AggSpec, pool *Pool) ([]value.Row, error) {
		agg := &ParallelHashAggregate{In: in, GroupBy: groupBy, Aggs: aggs, Out: intSchema("g", "k", "s", "c"), Pool: pool, MorselSize: 3}
		out, err := agg.Run()
		return out.AllRows(), err
	}
	junk := value.Row{value.Null, value.NewInt(0)}
	pools := []*Pool{NewPool(1), NewPool(4)}
	f := func(pairs []uint16) bool {
		if len(pairs) > 200 {
			pairs = pairs[:200]
		}
		rows := make([]value.Row, len(pairs))
		var want []value.Row // [g, CASE, sum, count] in first-seen order
		index := map[string]value.Row{}
		for i, p := range pairs {
			g, v := value.NewInt(int64(p%7)), value.NewInt(int64(p/7))
			rows[i] = value.Row{g, v}
			k := value.Null
			if v.I >= 10 {
				k = value.NewInt(v.I - 10)
			}
			ref := index[fmt.Sprint(g, k)]
			if ref == nil {
				ref = value.Row{g, k, value.NewInt(0), value.NewInt(0)}
				index[fmt.Sprint(g, k)] = ref
				want = append(want, ref)
			}
			ref[2].I += 3 * v.I
			ref[3].I++
		}
		for _, pool := range pools {
			for name, in := range map[string]Rel{"RowRel": RowRel(s, rows, nil), "batches": selectedBatches(s, rows, junk)} {
				got, err := run(in, aggs, pool)
				if err != nil || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Logf("%s, width %d: got %v, %v\nwant %v", name, pool.Size(), got, err, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	rows := rowsOf([]int64{1, 2}, []int64{1, 0}, []int64{2, 5})
	div := []AggSpec{{Func: "SUM", Arg: bind(t, expr.Bin(expr.OpDiv, expr.Int(10), expr.Col("v")), s)}}
	var errs []string
	for _, in := range []Rel{RowRel(s, rows, nil), selectedBatches(s, rows, value.Row{value.NewInt(1), value.NewInt(1)})} {
		if _, err := run(in, div, nil); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) != 2 || errs[0] != errs[1] || !strings.Contains(errs[0], "division by zero") {
		t.Errorf("SUM(10 / v) over a zero v: errors %q, want one division by zero from both forms", errs)
	}
	checkAggregateCases(t)
}
