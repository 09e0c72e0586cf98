package dist

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/value"
)

// gatherSchema is T(A BIGINT, B DOUBLE, S VARCHAR, C DATE): B and S hold
// NULLs, some of them on bitmap word edges.
func gatherSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "A", Kind: value.KindInt},
		value.Column{Name: "B", Kind: value.KindDouble, Nullable: true},
		value.Column{Name: "S", Kind: value.KindVarchar, Nullable: true},
		value.Column{Name: "C", Kind: value.KindDate},
	)
}

func gatherRow(i int) value.Row {
	row := value.Row{value.NewInt(int64(i)), value.NewDouble(float64(i%1000) / 4), value.NewString(fmt.Sprintf("s%d", i%7)), value.NewDate(int64(9000 + i%365))}
	if i%11 == 0 || i%64 == 63 {
		row[1] = value.Null
	}
	if i%13 == 0 || i%64 == 0 {
		row[2] = value.Null
	}
	return row
}

// writeShard writes a shard's rows to a worker in sequence order, the
// order the engine writes them in: rows loaded committed at cid 1, and rows
// pending(k) marks inserted by one transaction each, TIDs from 1000. The
// replica merges its delta once mergeAt committed rows are in (0 = never).
// It returns the pending transactions, in write order, for the caller to
// commit in another.
func writeShard(t *testing.T, w *Worker, table string, shard int, seqs []int64, rows []value.Row, pending func(k int) bool, mergeAt int) []uint64 {
	t.Helper()
	var tids []uint64
	lo, committed := 0, 0 // lo: first committed row not yet loaded
	flush := func(hi int) {
		if lo < hi {
			if err := w.LoadCommitted(table, shard, seqs[lo:hi], rows[lo:hi], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := range rows {
		if pending(k) {
			flush(k)
			lo = k + 1
			tid := uint64(1000 + len(tids))
			w.Insert(tid, table, shard, seqs[k], rows[k])
			tids = append(tids, tid)
			continue
		}
		if committed++; committed == mergeAt {
			flush(k + 1)
			lo = k + 1
			w.tables[strings.ToUpper(table)].shards[shard].tab.Merge()
		}
	}
	flush(len(rows))
	return tids
}

// TestGatherBatchesMatchNaiveScan checks the columnar gather against the
// plainest reading of a sharded scan: the rows visible at the snapshot,
// sorted by sequence, filtered one at a time, boxed with the unread columns
// NULL. Sequences interleave across 2 and 4 shards; each replica reads main,
// delta and a morsel straddling the two (it merged half way through its
// committed rows); the held-back rows are written in sequence order beside
// the rest and commit last, at cid 2, in the reverse of it — sparse in one
// case, dense in the other. Widths 1 and 4, wire codec off and on.
func TestGatherBatchesMatchNaiveScan(t *testing.T) {
	const n = 9000
	schema := gatherSchema().Qualify("T")
	cases := []struct {
		name     string
		holdBack func(i int) bool // commits last, at cid 2
	}{
		{"sparse held-back rows", func(i int) bool { return i%97 == 5 && i < n/2 }},
		{"dense held-back rows", func(i int) bool { return i%2 == 1 && i < 2*n/3 }},
	}
	scans := []struct {
		where  string
		needed []bool
	}{
		{"", nil},
		{"T.B > 100 OR T.S = 's3'", nil},
		{"T.S IS NULL OR T.C < DATE '1994-09-01'", []bool{true, false, true, true}},
		{"T.B IS NULL", []bool{false, true, false, true}},
	}
	for _, tc := range cases {
		for _, shards := range []int{2, 4} {
			tr := gatherFleet(t, n, shards, tc.holdBack)
			topo := Topology{Shards: shards, Replicas: 1}
			for _, sc := range scans {
				pred, err := parseExpr(sc.where, schema)
				if err != nil {
					t.Fatal(err)
				}
				for _, snap := range []uint64{1, 2} {
					wantRows := naiveScan(t, n, tc.holdBack, snap, pred, sc.needed)
					for _, width := range []int{1, 4} {
						for _, wire := range []bool{false, true} {
							tr.Wire = wire
							f := &Fragment{Snapshot: snap, Table: "T", Binding: "T", Where: sc.where, Needed: sc.needed, Width: width}
							res := gather(t, tr, topo, f, 0)
							at := fmt.Sprintf("%s shards=%d where=%q snapshot=%d width=%d wire=%v", tc.name, shards, sc.where, snap, width, wire)
							for k, b := range res.Batches {
								if b.Len() != exec.DefaultMorselSize && k != len(res.Batches)-1 || b.Len() == 0 {
									t.Fatalf("%s: batch %d of %d holds %d rows", at, k, len(res.Batches), b.Len())
								}
								for c := range b.Cols {
									if b.Cols[c].Pruned != (sc.needed != nil && !sc.needed[c]) {
										t.Fatalf("%s: batch %d column %d pruned %v", at, k, c, b.Cols[c].Pruned)
									}
								}
							}
							if got := mergedRows(res); !reflect.DeepEqual(got, wantRows) {
								for i := range got {
									if !reflect.DeepEqual(got[i], wantRows[i]) {
										t.Fatalf("%s: row %d = %v, want %v", at, i, got[i], wantRows[i])
									}
								}
								t.Fatalf("%s: %d rows, want %d", at, len(got), len(wantRows))
							}
						}
					}
				}
			}
		}
	}
}

// gatherFleet writes rows 0..n-1 (gatherRow) across shards workers as
// TestGatherBatchesMatchNaiveScan describes: each replica merges half way
// through its committed rows, and the held-back rows, written in sequence
// order beside the rest, commit last at cid 2 in the reverse of it.
func gatherFleet(t *testing.T, n, shards int, holdBack func(int) bool) *Local {
	t.Helper()
	type load struct {
		seqs      []int64
		rows      []value.Row
		held      []bool
		committed int
	}
	loads := make([]load, shards)
	for i := 0; i < n; i++ {
		row := gatherRow(i)
		l := &loads[ShardOf(row[0], shards)]
		l.seqs, l.rows, l.held = append(l.seqs, int64(i)), append(l.rows, row), append(l.held, holdBack(i))
		if !holdBack(i) {
			l.committed++
		}
	}
	workers := make([]*Worker, shards)
	for s := range workers {
		w := NewWorker(s, 4, nil)
		w.Register("T", gatherSchema())
		l := loads[s]
		tids := writeShard(t, w, "T", s, l.seqs, l.rows, func(k int) bool { return l.held[k] }, l.committed/2)
		slices.Reverse(tids)
		for _, tid := range tids {
			if err := w.Commit(tid, 2); err != nil {
				t.Fatal(err)
			}
		}
		workers[s] = w
	}
	return NewLocal(workers)
}

// TestGatherJoinChunksMatchNaiveJoin checks broadcast-join chunks through
// the merge against the plainest reading of the join: the probe rows a
// naive scan returns, each meeting every build row in build order, kept
// when the keys are equal and not NULL and the residual holds, the build
// row appended. The build side repeats keys (two matches for one probe
// row), holds a NULL key and VARCHAR values; the probe side's S column is
// pruned. 2 and 4 shards, both snapshots, widths 1 and 4, wire off and on.
func TestGatherJoinChunksMatchNaiveJoin(t *testing.T) {
	const n = 9000
	schema := gatherSchema().Qualify("T")
	buildSchema := value.NewSchema(value.Column{Name: "R.K", Kind: value.KindInt}, value.Column{Name: "R.V", Kind: value.KindVarchar})
	var build []value.Row
	for k := int64(0); k < 40; k++ {
		build = append(build, value.Row{value.NewInt(k), value.NewString(fmt.Sprint("v", k))})
		if k%3 == 0 {
			build = append(build, value.Row{value.NewInt(k), value.NewString(fmt.Sprint("w", k))})
		}
	}
	build = append(build, value.Row{value.Null, value.NewString("null key")})
	join := &JoinFragment{
		ProbeKeys: []string{"MOD(T.A, 50)"},
		BuildKeys: []string{"R.K"},
		Residual:  "T.B IS NULL OR T.B > R.K",
		BuildCols: buildSchema.Cols,
		BuildRows: build,
	}
	needed := []bool{true, true, false, true}
	probeKey, err := parseExpr(join.ProbeKeys[0], schema)
	if err != nil {
		t.Fatal(err)
	}
	residual, err := parseExpr(join.Residual, schema.Concat(buildSchema))
	if err != nil {
		t.Fatal(err)
	}
	holdBack := func(i int) bool { return i%2 == 1 && i < 2*n/3 }
	for _, shards := range []int{2, 4} {
		tr := gatherFleet(t, n, shards, holdBack)
		topo := Topology{Shards: shards, Replicas: 1}
		for _, snap := range []uint64{1, 2} {
			var want []value.Row
			for _, p := range naiveScan(t, n, holdBack, snap, nil, needed) {
				pk, err := probeKey.Eval(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range build {
					row := append(p.Clone(), b...)
					if keep, err := expr.Truthy(residual, row); err != nil || !keep || b[0].IsNull() || value.Compare(pk, b[0]) != 0 {
						continue
					}
					want = append(want, row)
				}
			}
			for _, width := range []int{1, 4} {
				for _, wire := range []bool{false, true} {
					tr.Wire = wire
					res := gather(t, tr, topo, &Fragment{Snapshot: snap, Table: "T", Binding: "T", Needed: needed, Width: width, Join: join}, 0)
					at := fmt.Sprintf("shards=%d snapshot=%d width=%d wire=%v", shards, snap, width, wire)
					for k, b := range res.Batches {
						if !b.Cols[2].Pruned || b.Len() == 0 || b.Len() > exec.DefaultMorselSize {
							t.Fatalf("%s: batch %d of %d rows, S pruned %v", at, k, b.Len(), b.Cols[2].Pruned)
						}
					}
					if got := mergedRows(res); !reflect.DeepEqual(got, want) {
						for i := range got {
							if i >= len(want) || !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("%s: row %d = %v, want %d rows", at, i, got[i], len(want))
							}
						}
						t.Fatalf("%s: %d rows, want %d", at, len(got), len(want))
					}
				}
			}
		}
	}
}

// naiveScan is the reference for a gather: rows 0..n-1 visible at the
// snapshot (held-back rows commit at 2, the rest at 1) in sequence order,
// those pred holds for, boxed with the columns needed does not mark NULL.
func naiveScan(t *testing.T, n int, heldBack func(int) bool, snapshot uint64, pred expr.Expr, needed []bool) []value.Row {
	t.Helper()
	var rows []value.Row
	for i := 0; i < n; i++ {
		if heldBack(i) && snapshot < 2 {
			continue
		}
		row := gatherRow(i)
		if pred != nil {
			ok, err := expr.Truthy(pred, row)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
		}
		for c := range row {
			if needed != nil && !needed[c] {
				row[c] = value.Null
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// TestDistGatherBytesScaleWithNeededColumns: a gather reading 2 of a
// 16-column table's columns allocates for those 2 — on the worker and at
// the coordinator — not for the table's width. Boxing every survivor as a
// full-width row cost about 16 × 40 B = 640 B a row.
func TestDistGatherBytesScaleWithNeededColumns(t *testing.T) {
	const n, width = 20000, 16
	cols := make([]value.Column, width)
	needed := make([]bool, width)
	for c := range cols {
		cols[c] = value.Column{Name: fmt.Sprintf("C%d", c), Kind: value.KindInt}
	}
	needed[0], needed[9] = true, true
	topo := Topology{Shards: 2, Replicas: 1}
	workers := make([]*Worker, topo.Shards)
	for s := range workers {
		workers[s] = NewWorker(s, 2, nil)
		workers[s].Register("W", value.NewSchema(cols...))
	}
	for i := 0; i < n; i++ {
		row := make(value.Row, width)
		for c := range row {
			row[c] = value.NewInt(int64(i*width + c))
		}
		s := ShardOf(row[0], topo.Shards)
		if err := workers[s].LoadCommitted("W", s, []int64{int64(i)}, []value.Row{row}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for s, w := range workers {
		w.tables["W"].shards[s].tab.Merge() // main: the scan decodes what it reads
	}
	tr := NewLocal(workers)
	f := &Fragment{Snapshot: 1, Table: "W", Binding: "W", Needed: needed}
	gather(t, tr, topo, f, 0) // warm the pools
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := gather(t, tr, topo, f, 0)
	runtime.ReadMemStats(&after)
	if res.Len() != n {
		t.Fatalf("gathered %d rows, want %d", res.Len(), n)
	}
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.1f B allocated per gathered row", perRow)
	if perRow > 64 {
		t.Fatalf("a 2-of-%d-column gather allocated %.1f B per row, want at most 64", width, perRow)
	}
}

// cancelAfterShards is a transport that cancels the query's context once
// every shard's fragment has returned.
type cancelAfterShards struct {
	Transport
	left   atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelAfterShards) Run(ctx context.Context, worker int, f *Fragment, sink ChunkSink) error {
	err := c.Transport.Run(ctx, worker, f, sink)
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return err
}

// A gather whose context ends after the shards have returned their chunks
// gets the context's error from the merge, and no batches.
func TestGatherMergeStopsOnCancel(t *testing.T) {
	topo := Topology{Shards: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAfterShards{Transport: seedFleet(t, topo, 3000, false), cancel: cancel}
	tr.left.Store(int32(topo.Shards))
	c := &Coordinator{Topo: topo, Transport: tr, Caller: testCaller()}
	res, err := c.Gather(ctx, &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("gather after cancel = %v, %v; want no result and context.Canceled", res, err)
	}
	if tr.left.Load() != 0 {
		t.Fatalf("%d shards never returned", tr.left.Load())
	}
}
