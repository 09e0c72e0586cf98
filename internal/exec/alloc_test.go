package exec

import (
	"context"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Aggregation and join inner loops must allocate per group / per output
// row, never per input row: the group-key buffer and the probe key scratch
// are reused across rows. These tests pin allocation counts well below the row
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
	build := rowsOf([]int64{0, 100}, []int64{1, 101}, []int64{2, 102}, []int64{3, 103})
	s := intSchema("g", "v")
	key := []expr.Expr{expr.Col("g")}
	if err := expr.Bind(key[0], s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		out, err := HashJoinParallel(context.Background(), nil, 0, 0, nil, JoinAnti,
			Rel{Rows: left}, Rel{Rows: build}, key, key, nil, 0)
		if err != nil || len(out) != 0 {
			t.Fatalf("anti join = %d rows, %v", len(out), err)
		}
	})
	// Every probe row matches, so nothing is emitted: probing n rows must
	// allocate per morsel, never per row.
	if allocs > n/4 {
		t.Errorf("probing %d rows allocates %.0f times; the probe loop must not allocate per row", n, allocs)
	}
}
