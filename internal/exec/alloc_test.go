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

// The one accumulation loop over either input form: besides the group table
// itself (bounded by group count), the only per-call allocations are the key
// buffer, the segment's readers and the per-group states. A batch is read off
// its vectors, never one boxed row per input row.
func checkAggregateMorselSubLinearAllocs(t *testing.T, batch bool) {
	t.Helper()
	const n = 4096
	rows := modRows(n)
	s := intSchema("g", "v")
	es := []expr.Expr{expr.Col("g"), expr.Col("v"), expr.Bin(expr.OpMul, expr.Col("v"), expr.Int(3)), nil}
	aggs := []AggSpec{{Func: "SUM", Arg: es[1]}, {Func: "SUM", Arg: es[2]}, {Func: "COUNT"}}
	for _, e := range es[:3] {
		if err := expr.Bind(e, s); err != nil {
			t.Fatal(err)
		}
	}
	seg := segment{rows: rows, lo: 0, hi: n}
	if batch {
		seg = segment{b: value.BatchFromRows(s, rows, nil), lo: 0, hi: n}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := aggregateMorsel([]segment{seg}, 0, es, aggs, []int{0}); err != nil {
			t.Fatal(err)
		}
	})
	// 4 groups: a per-row key buffer, scratch row or boxed slab would cost
	// ≥ n allocations alone.
	if allocs > n/4 {
		t.Errorf("aggregateMorsel (batch=%v) allocates %.0f times for %d rows; the key buffer must be reused across rows", batch, allocs, n)
	}
}

func TestAggregateMorselSubLinearAllocs(t *testing.T) {
	checkAggregateMorselSubLinearAllocs(t, false)
}

func TestAggregateBatchMorselSubLinearAllocs(t *testing.T) {
	checkAggregateMorselSubLinearAllocs(t, true)
}

func TestHashJoinProbeSubLinearAllocs(t *testing.T) {
	const n = 1000
	s := intSchema("g", "v")
	left := Rel{Schema: s, Rows: modRows(n)}
	build := Rel{Schema: s, Rows: rowsOf([]int64{0, 100}, []int64{1, 101}, []int64{2, 102}, []int64{3, 103})}
	key := []expr.Expr{expr.Col("g")}
	if err := expr.Bind(key[0], s); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		out, _, err := HashJoin(context.Background(), nil, 0, 0, nil, JoinAnti, left, build, key, key, nil)
		if err != nil || out.Len() != 0 {
			t.Fatalf("anti join = %d rows, %v", out.Len(), err)
		}
	})
	// Every probe row matches, so nothing is emitted: probing n rows must
	// allocate per morsel, never per row.
	if allocs > n/4 {
		t.Errorf("probing %d rows allocates %.0f times; the probe loop must not allocate per row", n, allocs)
	}
}

// A probe morsel gathers its output once per column: joining a 4,096-row
// probe batch whose every row matches one build row allocates what joining
// a 64-row batch does — the pairs, one vector per output column and the
// batch — never a row per match.
func TestHashJoinGatherAllocatesPerColumn(t *testing.T) {
	s := intSchema("g", "v")
	build := Rel{Schema: s, Rows: rowsOf([]int64{0, 100}, []int64{1, 101}, []int64{2, 102}, []int64{3, 103})}
	key := []expr.Expr{expr.Col("g")}
	if err := expr.Bind(key[0], s); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		probe := Rel{Schema: s, Batches: []*value.Batch{value.BatchFromRows(s, modRows(n), nil)}}
		return testing.AllocsPerRun(5, func() {
			out, _, err := HashJoin(context.Background(), nil, 0, 0, nil, JoinInner, probe, build, key, key, nil)
			if err != nil || out.Len() != n || len(out.Batches) != 1 {
				t.Fatalf("inner join of %d rows = %d rows in %d batches, %v", n, out.Len(), len(out.Batches), err)
			}
		})
	}
	small, large := allocs(64), allocs(DefaultMorselSize)
	t.Logf("%d-row probe morsel: %.0f allocations; 64 rows: %.0f", DefaultMorselSize, large, small)
	if large > small {
		t.Errorf("a %d-row probe morsel allocates %.0f times, a 64-row one %.0f: the probe allocates per row", DefaultMorselSize, large, small)
	}
}
