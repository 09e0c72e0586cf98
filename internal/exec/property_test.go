package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hana/internal/expr"
	"hana/internal/value"
)

// TestHashJoinEquivalentToNestedLoop checks on random inputs that the hash
// join and the nested-loop join (with the equality as a general predicate)
// produce the same multiset of rows, for inner, left-outer, semi and anti
// kinds.
func TestHashJoinEquivalentToNestedLoop(t *testing.T) {
	ls := intSchema("l.k", "l.v")
	rs := intSchema("r.k", "r.v")
	concat := ls.Concat(rs)

	mkRows := func(keys []uint8, seed int64) []value.Row {
		rng := rand.New(rand.NewSource(seed))
		out := make([]value.Row, len(keys))
		for i, k := range keys {
			out[i] = value.Row{value.NewInt(int64(k % 8)), value.NewInt(rng.Int63n(100))}
		}
		return out
	}
	canon := func(rows []value.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	equal := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	for _, kind := range []JoinKind{JoinInner, JoinLeftOuter, JoinSemi, JoinAnti} {
		kind := kind
		f := func(lk, rk []uint8) bool {
			if len(lk) > 40 {
				lk = lk[:40]
			}
			if len(rk) > 40 {
				rk = rk[:40]
			}
			left := mkRows(lk, 1)
			right := mkRows(rk, 2)

			hj := &HashJoin{
				Kind:      kind,
				Left:      NewSlice(ls, left),
				Right:     NewSlice(rs, right),
				LeftKeys:  []expr.Expr{bound(t, "l.k", ls)},
				RightKeys: []expr.Expr{bound(t, "r.k", rs)},
			}
			hr, err := Materialize(hj)
			if err != nil {
				return false
			}

			on := expr.Eq(expr.Col("l.k"), expr.Col("r.k"))
			if err := expr.Bind(on, concat); err != nil {
				return false
			}
			nl := &NestedLoopJoin{
				Kind:  kind,
				Left:  NewSlice(ls, left),
				Right: NewSlice(rs, right),
				On:    on,
			}
			nr, err := Materialize(nl)
			if err != nil {
				return false
			}
			return equal(canon(hr.Data), canon(nr.Data))
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
