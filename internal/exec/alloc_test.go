package exec

import (
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Aggregation and join inner loops must allocate per group / per output
// row, never per input row: the group-key buffer and the match scratch are
// reused across rows. These tests pin allocation counts well below the row
// count, so reintroducing a per-row make shows up as an order-of-magnitude
// jump.

func modRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 4)), value.NewInt(int64(i))}
	}
	return rows
}

func TestAggregateMorselSubLinearAllocs(t *testing.T) {
	const n = 2000
	rows := modRows(n)
	s := intSchema("g", "v")
	groupBy := []expr.Expr{expr.Col("g")}
	aggs := []AggSpec{{Func: "SUM", Arg: expr.Col("v")}}
	for _, e := range []expr.Expr{groupBy[0], aggs[0].Arg} {
		if err := expr.Bind(e, s); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := aggregateMorsel(rows, 0, groupBy, aggs, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	// 4 groups: a per-row key buffer would cost ≥ n allocations alone.
	if allocs > n/4 {
		t.Errorf("aggregateMorsel allocates %.0f times for %d rows; the key buffer must be reused across rows", allocs, n)
	}
}

func TestHashJoinProbeSubLinearAllocs(t *testing.T) {
	const n = 1000
	left := modRows(n)
	build := rowsOf([]int64{0, 100}, []int64{1, 101})
	s := intSchema("g", "v")
	key := func() expr.Expr {
		e := expr.Col("g")
		if err := expr.Bind(e, s); err != nil {
			t.Fatal(err)
		}
		return e
	}
	j := &HashJoin{
		Kind:      JoinInner,
		Left:      NewSlice(s, left),
		Right:     NewSlice(s, build),
		LeftKeys:  []expr.Expr{key()},
		RightKeys: []expr.Expr{key()},
	}
	out := 0
	if err := j.build(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for _, l := range left {
			m, err := j.matches(l)
			if err != nil {
				t.Fatal(err)
			}
			out += len(m)
		}
	})
	// The match buffer is reused: probing n rows must not allocate n slices.
	if allocs > n/4 {
		t.Errorf("probing %d rows allocates %.0f times; the matches scratch must be reused", n, allocs)
	}
	if out == 0 {
		t.Fatal("join produced no matches")
	}
}
