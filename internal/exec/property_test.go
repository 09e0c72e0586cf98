package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hana/internal/expr"
	"hana/internal/value"
)

// TestHashJoinEquivalentToNestedLoop checks HashJoinParallel on random
// inputs with NULL keys on both sides, and on empty build and probe sides,
// for every kind at morsel size 3, widths 1 and 4, with row- and
// batch-backed sides. Its output must equal, row for row and in order,
// NestedLoopJoin with the equality as a general predicate (inner, left
// outer) or a naive three-valued loop (semi, anti, null-aware anti).
func TestHashJoinEquivalentToNestedLoop(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	concat := ls.Concat(rs)
	on := expr.Eq(bound(t, "l.k", concat), bound(t, "r.k", concat))
	lk, rk := []expr.Expr{bound(t, "l.k", ls)}, []expr.Expr{bound(t, "r.k", rs)}
	pools := []*Pool{NewPool(1), NewPool(4)}

	mkRows := func(keys []uint8, seed int64) []value.Row {
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
			out[i] = value.Row{kv, value.NewInt(rng.Int63n(100))}
		}
		return out
	}
	// side cuts rows into 5-row batches, so morsels straddle batches.
	side := func(s *value.Schema, rows []value.Row, batched bool) JoinSide {
		if !batched {
			return JoinSide{Rows: rows}
		}
		bs := []*value.Batch{}
		for lo := 0; lo < len(rows); lo += 5 {
			bs = append(bs, value.BatchFromRows(s, rows[lo:min(lo+5, len(rows))], nil))
		}
		return JoinSide{Batches: bs}
	}
	reference := func(kind JoinKind, left, right []value.Row) ([]value.Row, error) {
		if kind == JoinInner || kind == JoinLeftOuter {
			rows, err := Materialize(&NestedLoopJoin{Kind: kind, Left: NewSlice(ls, left), Right: NewSlice(rs, right), On: on})
			if err != nil {
				return nil, err
			}
			return rows.Data, nil
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
		f := func(lkeys, rkeys []uint8) bool {
			left, right := mkRows(lkeys, 1), mkRows(rkeys, 2)
			want, err := reference(kind, left, right)
			if err != nil {
				t.Log(err)
				return false
			}
			for _, pool := range pools {
				for _, form := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
					got, err := HashJoinParallel(context.Background(), pool, 0, 3, nil, kind,
						side(ls, left, form[0]), side(rs, right, form[1]), lk, rk, nil, rs.Len())
					if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Logf("width %d, batched %v: got %v, %v\nwant %v", pool.Size(), form, got, err, want)
						return false
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

func bound(t *testing.T, name string, s *value.Schema) expr.Expr {
	t.Helper()
	c := expr.Col(name)
	if err := expr.Bind(c, s); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAggregateMatchesReference cross-checks the hash aggregate (nil Pool: one
// worker) against a naive
// reference implementation on random groups.
func TestAggregateMatchesReference(t *testing.T) {
	s := intSchema("g", "v")
	f := func(pairs []uint16) bool {
		if len(pairs) > 200 {
			pairs = pairs[:200]
		}
		rows := make([]value.Row, len(pairs))
		refSum := map[int64]int64{}
		refCount := map[int64]int64{}
		for i, p := range pairs {
			g := int64(p % 7)
			v := int64(p / 7)
			rows[i] = value.Row{value.NewInt(g), value.NewInt(v)}
			refSum[g] += v
			refCount[g]++
		}
		agg := &ParallelHashAggregate{
			In:      NewSlice(s, rows),
			GroupBy: []expr.Expr{bound(t, "g", s)},
			Aggs: []AggSpec{
				{Func: "SUM", Arg: bound(t, "v", s)},
				{Func: "COUNT"},
			},
			Out: intSchema("g", "s", "c"),
		}
		got, err := Materialize(agg)
		if err != nil {
			return false
		}
		if got.Len() != len(refSum) {
			return false
		}
		for _, r := range got.Data {
			g := r[0].Int()
			if r[1].Int() != refSum[g] || r[2].Int() != refCount[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSortStableAndTotal verifies sorting against sort.SliceStable on
// random data, including NULLs (which order first).
func TestSortStableAndTotal(t *testing.T) {
	s := intSchema("a", "seq")
	f := func(keys []uint8) bool {
		rows := make([]value.Row, len(keys))
		for i, k := range keys {
			kv := value.NewInt(int64(k % 5))
			if k%11 == 0 {
				kv = value.Null
			}
			rows[i] = value.Row{kv, value.NewInt(int64(i))}
		}
		srt := &Sort{In: NewSlice(s, rows), Keys: []SortKey{{E: bound(t, "a", s)}}}
		got, err := Materialize(srt)
		if err != nil || got.Len() != len(rows) {
			return false
		}
		for i := 1; i < got.Len(); i++ {
			c := value.Compare(got.Data[i-1][0], got.Data[i][0])
			if c > 0 {
				return false
			}
			if c == 0 && got.Data[i-1][1].Int() > got.Data[i][1].Int() {
				return false // stability: original order preserved within ties
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
