package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hana/internal/expr"
	"hana/internal/value"
)

// Aggregation and join inner loops must allocate per group / per output
// row, never per input row: the group-key buffer and the probe key scratch
// are reused across rows. These tests pin allocation counts well below the row
// count, so reintroducing a per-row make shows up as an order-of-magnitude
// jump.

// allocsPerRun is testing.AllocsPerRun with the collector paused: a GC
// cycle during the measured calls empties every sync.Pool, and a call that
// then refills one mallocs what it would not have otherwise, which no pin
// should read as the code's. (Pool.Run formatting its span attributes
// through fmt's printer pool with tracing off made 58 read 59–60 on a
// 4,096-row join; it no longer formats them.)
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

func modRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 4)), value.NewInt(int64(i))}
	}
	return rows
}

// The one accumulation loop over either input form: besides the group table
// itself (bounded by group count), the only per-call allocations are the
// morsel's scratch, the segment's readers and kernels, the per-group slab
// and, for rows, RowRel's batch. A batch is read off its vectors, never one
// boxed row per input row.
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
	run := func() error {
		_, err := (&ParallelHashAggregate{In: RowRel(s, rows, nil), GroupBy: es[:1], Aggs: aggs}).Partial()
		return err
	}
	if batch {
		seg := segment{b: value.BatchFromRows(s, rows, nil), lo: 0, hi: n}
		run = func() error {
			_, err := aggregateMorsel([]segment{seg}, 0, es, aggs, 1)
			return err
		}
	}
	allocs := allocsPerRun(5, func() {
		if err := run(); err != nil {
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
	left := RowRel(s, modRows(n), nil)
	build := RowRel(s, rowsOf([]int64{0, 100}, []int64{1, 101}, []int64{2, 102}, []int64{3, 103}), nil)
	key := []expr.Expr{expr.Col("g")}
	if err := expr.Bind(key[0], s); err != nil {
		t.Fatal(err)
	}
	allocs := allocsPerRun(5, func() {
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
	build := RowRel(s, rowsOf([]int64{0, 100}, []int64{1, 101}, []int64{2, 102}, []int64{3, 103}), nil)
	key := []expr.Expr{expr.Col("g")}
	if err := expr.Bind(key[0], s); err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		probe := Rel{Schema: s, Batches: []*value.Batch{value.BatchFromRows(s, modRows(n), nil)}}
		return allocsPerRun(5, func() {
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

// The typed aggregate's key phase starts groups from the partial's slab and
// its argument phase folds the vectors in place: a 4,096-row morsel of 4
// groups allocates what a 64-row one does (the morsel's scratch, the
// partial, a kernel's compile), and 4,096 distinct groups allocate per slab
// chunk and index growth, never per group or per row.
func TestAggregateMorselAllocatesPerSlab(t *testing.T) {
	s := intSchema("g", "v")
	es := []expr.Expr{expr.Col("g"), expr.Col("v"), expr.Bin(expr.OpMul, expr.Col("v"), expr.Int(3)), nil}
	for _, e := range es[:3] {
		if err := expr.Bind(e, s); err != nil {
			t.Fatal(err)
		}
	}
	aggs := []AggSpec{{Func: "SUM", Arg: es[1]}, {Func: "SUM", Arg: es[2]}, {Func: "COUNT"}}
	allocs := func(n, groups int) float64 {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i % groups)), value.NewInt(int64(i))}
		}
		seg := segment{b: value.BatchFromRows(s, rows, nil), lo: 0, hi: n}
		return allocsPerRun(5, func() {
			pt, err := aggregateMorsel([]segment{seg}, 0, es, aggs, 1)
			if err != nil || len(pt.Groups) != groups {
				t.Fatalf("%d rows: %d groups, %v; want %d", n, len(pt.Groups), err, groups)
			}
		})
	}
	small, large, distinct := allocs(64, 4), allocs(DefaultMorselSize, 4), allocs(DefaultMorselSize, DefaultMorselSize)
	t.Logf("4 groups: %.0f allocations over 64 rows, %.0f over %d; %d groups: %.0f", small, large, DefaultMorselSize, DefaultMorselSize, distinct)
	if large > small {
		t.Errorf("a %d-row morsel of 4 groups allocates %.0f times, a 64-row one %.0f: the aggregate allocates per row", DefaultMorselSize, large, small)
	}
	if distinct >= 512 {
		t.Errorf("%d distinct groups allocate %.0f times, want fewer than 512: groups must come from slabs", DefaultMorselSize, distinct)
	}
}

// The build side is indexed as (batch, row) of its own batches: an 8-batch
// side is neither copied into one batch nor boxed into key values, so what
// the build allocates grows with its keys and rows, not with the columns it
// carries. Widening each build row from 2 columns to 16 must not add a byte
// per row.
func TestHashJoinBuildAllocatesPerKey(t *testing.T) {
	const batches, n = 8, DefaultMorselSize
	key := []expr.Expr{&expr.ColRef{Name: "c0", Ord: 0}}
	probeSchema := intSchema("c0")
	probe := Rel{Schema: probeSchema, Batches: []*value.Batch{value.BatchFromRows(probeSchema, []value.Row{{value.NewInt(3)}}, nil)}}
	bytes := func(width int) float64 {
		names := make([]string, width)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		s := intSchema(names...)
		build := Rel{Schema: s}
		for b := 0; b < batches; b++ {
			rows := make([]value.Row, n)
			for i := range rows {
				rows[i] = make(value.Row, width)
				for c := range rows[i] {
					rows[i][c] = value.NewInt(int64(b*n + i + c))
				}
			}
			build.Batches = append(build.Batches, value.BatchFromRows(s, rows, nil))
		}
		return bytesPerRun(3, func() {
			out, _, err := HashJoin(context.Background(), nil, 0, 0, nil, JoinInner, probe, build, key, key, nil)
			if err != nil || out.Len() != 1 {
				t.Fatalf("join = %d rows, %v; want 1", out.Len(), err)
			}
		}) / (batches * n)
	}
	narrow, wide := bytes(2), bytes(16)
	t.Logf("%d-batch build side: %.1f B per build row at 2 columns, %.1f at 16", batches, narrow, wide)
	if wide > narrow+1 {
		t.Errorf("16 build columns cost %.1f B per build row, 2 cost %.1f: the build side is copied", wide, narrow)
	}
}

// bytesPerRun is the heap bytes f allocates per call, the collector paused.
func bytesPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// ORDER BY sorts (batch, row) pairs on the key vectors and gathers each
// output column once per output batch: sorting 8 batches of 4,096 rows
// allocates per input batch (its projection), per output batch and column
// (the gathered vectors) and once for the permutation, never per row.
func TestFinishSortAllocatesPerColumn(t *testing.T) {
	const batches = 8
	s := intSchema("g", "v")
	blk, err := AnalyzeBlock(parseSelect(t, "SELECT v, g FROM t ORDER BY g DESC, v"), s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		b := value.BatchFromRows(s, modRows(n), nil)
		return allocsPerRun(5, func() {
			in := Rel{Schema: s, Batches: make([]*value.Batch, batches)}
			for i := range in.Batches {
				in.Batches[i] = b
			}
			out, _, err := blk.Finish(context.Background(), in, nil)
			if err != nil || out.Len() != batches*n {
				t.Fatalf("ORDER BY over %d × %d rows = %d rows, %v", batches, n, out.Len(), err)
			}
		})
	}
	small, large := allocs(64), allocs(DefaultMorselSize)
	t.Logf("%d × %d rows: %.0f allocations; %d × 64 rows: %.0f", batches, DefaultMorselSize, large, batches, small)
	if perBatch := 16.0; large > perBatch*batches {
		t.Errorf("ORDER BY over %d × %d rows allocates %.0f times, over %.0f per batch: the sort allocates per row", batches, DefaultMorselSize, large, perBatch)
	}
}
