package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// scanRow is one element of a scan's output stream.
type scanRow struct {
	part *partition
	id   int
	row  value.Row
}

// naiveScan is the reference planner.scan is held to: every stored row of
// every partition in order, kept when it is visible to the reader and the
// predicate holds for it. No pruning, no morsels, no vectors.
func naiveScan(t *testing.T, parts []*partition, pred expr.Expr, snapshot, tid uint64) []scanRow {
	t.Helper()
	var out []scanRow
	for _, p := range parts {
		visit := func(id int, row value.Row) bool {
			if !p.vers.Visible(id, snapshot, tid) {
				return true
			}
			if pred != nil {
				ok, err := expr.Truthy(pred, row)
				if err != nil {
					t.Fatalf("naive scan: %v", err)
				}
				if !ok {
					return true
				}
			}
			out = append(out, scanRow{p, id, row.Clone()})
			return true
		}
		if err := p.scan(visit); err != nil {
			t.Fatalf("naive scan: %v", err)
		}
	}
	return out
}

func scanStream(sc *tableScan) []scanRow {
	var out []scanRow
	for i, b := range sc.batches {
		for k, row := range b.MaterializeRows() {
			out = append(out, scanRow{sc.parts[i], sc.bases[i] + b.RowIndex(k), row})
		}
	}
	return out
}

// scanTestRow builds row id of the test tables: v and s are NULL now and
// then, v is not monotonic in id (zone maps on it prune nothing), s has few
// distinct values, d ascends with id.
func scanTestRow(id int) value.Row {
	r := value.Row{
		value.NewInt(int64(id)),
		value.NewDouble(float64((id * 7919) % 1000)),
		value.NewString(fmt.Sprintf("k%d", id%5)),
		value.NewDate(int64(15000 + id/100)),
	}
	if id%11 == 0 {
		r[1] = value.Null
	}
	if id%7 == 0 {
		r[2] = value.Null
	}
	return r
}

func TestScanMatchesNaiveLoop(t *testing.T) {
	const loaded = 9000 // two full disk chunks and a short third
	ctx := context.Background()
	cols := "(id BIGINT, v DOUBLE, s VARCHAR(8), d DATE)"
	split := value.NewDate(15000 + 50).SQLLiteral() // rows 0..4999 cold, the rest hot
	placements := []struct{ name, create string }{
		{"column", "CREATE COLUMN TABLE t " + cols},
		{"row", "CREATE ROW TABLE t " + cols},
		{"extended", "CREATE TABLE t " + cols + " USING EXTENDED STORAGE"},
		{"hybrid", "CREATE TABLE t " + cols + " PARTITION BY RANGE (d) (PARTITION VALUES < " + split + " USING EXTENDED STORAGE, PARTITION OTHERS)"},
	}
	preds := []string{
		"",
		"id >= 4200 AND id < 4300",        // zone maps on id prune chunks
		"v > 900",                         // zone maps on v prune nothing
		"d < " + split,                    // the hybrid table's hot partition is pruned
		"d >= " + split + " AND s = 'k3'", // … and here its cold one
		"s IS NULL OR id = 7",             // no range at all
		"id IN (3, 4100, 8999, 9001) AND v IS NOT NULL",
	}
	for _, pl := range placements {
		name := pl.name
		t.Run(name, func(t *testing.T) {
			e := New(Config{ExtendedStorageDir: t.TempDir(), Parallelism: 4})
			exec1(t, e, pl.create)
			rows := make([]value.Row, loaded)
			for id := range rows {
				rows[id] = scanTestRow(id)
			}
			if err := e.BulkLoad("t", rows); err != nil {
				t.Fatal(err)
			}
			st, err := e.table("t")
			if err != nil {
				t.Fatal(err)
			}
			// Committed deletes: version stamps on every placement.
			exec1(t, e, "DELETE FROM t WHERE id IN (5, 4097, 8500)")
			// An unflushed tail behind the flushed chunks of every cold partition.
			for _, p := range st.parts {
				if p.ext == nil {
					continue
				}
				for i := 0; i < 40; i++ {
					id := p.numRows()
					if err := p.ext.Append(scanTestRow(100 + i)); err != nil {
						t.Fatal(err)
					}
					p.vers.InsertCommitted(id, e.mgr.LastCID())
				}
			}
			// The reader: a transaction with inserts and deletes of its own,
			// and a commit by someone else after it began that it must not see.
			tx := e.Begin()
			for _, sql := range []string{
				"INSERT INTO t VALUES (9001, 950, 'k3', " + value.NewDate(15095).SQLLiteral() + "), (9002, NULL, NULL, " + value.NewDate(15001).SQLLiteral() + ")",
				"DELETE FROM t WHERE id IN (7, 4200, 8999)",
			} {
				if _, err := e.ExecuteContext(ctx, sql, WithTx(tx)); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			exec1(t, e, "INSERT INTO t VALUES (9003, 999, 'k3', "+value.NewDate(15096).SQLLiteral()+")")
			exec1(t, e, "DELETE FROM t WHERE id = 4250")
			defer func() { _ = e.Rollback(tx) }()

			schema := st.meta.Schema
			for _, where := range preds {
				var pred expr.Expr
				needed := []bool{true, false, false, false} // id alone
				if where != "" {
					stmt, err := sqlparse.Parse("SELECT id FROM t WHERE " + where)
					if err != nil {
						t.Fatal(err)
					}
					if pred, err = expr.BindClone(stmt.(*sqlparse.SelectStmt).Where, schema); err != nil {
						t.Fatal(err)
					}
					expr.Walk(pred, func(n expr.Expr) bool {
						if c, ok := n.(*expr.ColRef); ok {
							needed[c.Ord] = true
						}
						return true
					})
				}
				want := naiveScan(t, st.parts, pred, tx.Snapshot, tx.TID)
				// In memory the reader sees its own two inserts; three rows
				// were deleted before it began and three it deleted itself.
				if where == "" && (name == "column" || name == "row") && len(want) != loaded-3+2-3 {
					t.Fatalf("the loop sees %d rows", len(want))
				}
				for _, mask := range [][]bool{nil, needed} {
					for _, width := range []int{1, 4} {
						sc, err := e.newPlanner(ctx, tx, nil, width).scan(st, st.parts, schema, pred, mask)
						if err != nil {
							t.Fatalf("WHERE %s: %v", where, err)
						}
						got := scanStream(sc)
						if len(got) != len(want) {
							t.Fatalf("WHERE %s, mask %v, width %d: %d rows, the loop gives %d", where, mask, width, len(got), len(want))
						}
						for i := range want {
							g, w := got[i], want[i]
							same := g.part == w.part && g.id == w.id
							for c := range w.row {
								// A pruned column reads NULL where the store lets
								// the scan skip it; only needed ones must agree.
								if mask == nil || mask[c] {
									same = same && reflect.DeepEqual(g.row[c], w.row[c])
								}
							}
							if !same {
								t.Fatalf("WHERE %s, mask %v, width %d: element %d is (part %d, id %d, %v), the loop gives (part %d, id %d, %v)",
									where, mask, width, i, g.part.idx, g.id, g.row, w.part.idx, w.id, w.row)
							}
						}
						if where == "" {
							visible := 0
							for _, n := range sc.visible {
								visible += n
							}
							if visible != len(want) {
								t.Fatalf("width %d: %d rows counted visible, the loop sees %d", width, visible, len(want))
							}
						}
					}
				}
			}
		})
	}
}

// A cold chunk that cannot be read must fail UPDATE and DELETE the way it
// fails SELECT; collectTargets used to drop the error and report 0 rows.
func TestDMLSurfacesColdScanError(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{ExtendedStorageDir: dir})
	exec1(t, e, "CREATE TABLE c (id BIGINT, v DOUBLE) USING EXTENDED STORAGE")
	rows := make([]value.Row, 10000)
	for id := range rows {
		rows[id] = value.Row{value.NewInt(int64(id)), value.NewDouble(float64(id % 10))}
	}
	if err := e.BulkLoad("c", rows); err != nil {
		t.Fatal(err)
	}
	before := exec1(t, e, "SELECT COUNT(*), SUM(v) FROM c").Rows[0]

	file := filepath.Join(dir, "c", "c000002_000.col") // ids 8192.. of column id
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(file); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, sql := range []string{
		"DELETE FROM c WHERE id = 9000",
		"UPDATE c SET v = 1 WHERE id = 9000",
		"SELECT COUNT(*) FROM c WHERE id = 9000",
	} {
		if res, err := e.ExecuteContext(ctx, sql); err == nil {
			t.Fatalf("%s: want the chunk read error, got %q", sql, res.Message)
		}
	}
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if after := exec1(t, e, "SELECT COUNT(*), SUM(v) FROM c").Rows[0]; !reflect.DeepEqual(after, before) {
		t.Fatalf("failed DML changed the table: %v, was %v", after, before)
	}
	if res := exec1(t, e, "DELETE FROM c WHERE id = 9000"); res.Affected != 1 {
		t.Fatalf("with the chunk back the delete affects %d rows", res.Affected)
	}
}

// DML and the row counters prune like SELECT: exact chunk counts from the
// extended store's statistics, on a hybrid table loaded in key order.
func TestDMLAndCountsReadOnlyTheChunksTheyNeed(t *testing.T) {
	e := New(Config{ExtendedStorageDir: t.TempDir()})
	split := value.NewDate(15100)
	exec1(t, e, `CREATE TABLE ev (id BIGINT, v DOUBLE, d DATE, aged BOOLEAN)
		PARTITION BY RANGE (d) (PARTITION VALUES < `+split.SQLLiteral()+` USING EXTENDED STORAGE, PARTITION OTHERS)`)
	const cold, hot, chunks = 10000, 3000, 3 // 10000 cold rows = 4096 + 4096 + 1808
	rows := make([]value.Row, cold+hot)
	for id := range rows {
		rows[id] = value.Row{value.NewInt(int64(id)), value.NewDouble(float64(id % 10)),
			value.NewDate(15000 + int64(id/100)), value.NewBool(false)}
	}
	if err := e.BulkLoad("ev", rows); err != nil {
		t.Fatal(err)
	}
	ext, err := e.ExtendedStore()
	if err != nil {
		t.Fatal(err)
	}
	// decoded counts the chunk-columns a statement touched, from disk or cache.
	type counts struct{ decoded, skipped int64 }
	measure := func(fn func()) counts {
		s := &ext.Stats
		r, h, k := s.ChunksRead.Load(), s.CacheHits.Load(), s.ChunksSkipped.Load()
		fn()
		return counts{s.ChunksRead.Load() - r + s.CacheHits.Load() - h, s.ChunksSkipped.Load() - k}
	}
	run := func(sql string, affected int64) func() {
		return func() {
			if res := exec1(t, e, sql); res.Affected != affected {
				t.Fatalf("%s: affected %d rows, want %d", sql, res.Affected, affected)
			}
		}
	}

	if got := measure(run("DELETE FROM ev WHERE id = 5000", 1)); got != (counts{1, chunks - 1}) {
		t.Errorf("cold point delete: %+v, want one chunk of column id and the others skipped", got)
	}
	inHot := fmt.Sprintf("d >= %s AND d < %s", value.NewDate(15110).SQLLiteral(), value.NewDate(15112).SQLLiteral())
	if got := measure(run("UPDATE ev SET aged = TRUE WHERE "+inHot+" AND aged = FALSE", 200)); got != (counts{}) {
		t.Errorf("update bounded inside the hot partition: %+v, want no cold chunk touched", got)
	}
	if got := measure(func() {
		res := exec1(t, e, "SELECT COUNT(*), SUM(v) FROM ev")
		if res.Rows[0][0].Int() != cold+hot-1 {
			t.Fatalf("count = %v", res.Rows[0][0])
		}
	}); got != (counts{chunks, 0}) {
		t.Errorf("SELECT COUNT(*), SUM(v): %+v, want the %d chunks of column v alone", got, chunks)
	}
	if got := measure(func() {
		n, err := e.TableRowCount("ev")
		if err != nil || n != cold+hot-1 {
			t.Fatalf("TableRowCount = %d, %v", n, err)
		}
		parts, err := e.PartitionRowCounts("ev")
		if err != nil || len(parts) != 2 || !parts[0].Cold || parts[0].Rows != cold-1 || parts[1].Rows != hot {
			t.Fatalf("PartitionRowCounts = %+v, %v", parts, err)
		}
	}); got != (counts{}) {
		t.Errorf("row counters: %+v, want no chunk payload read", got)
	}
}

// Aging moves a row into the cold partition by its flag, not by its key, so
// that partition's bounds say nothing about what it holds: a statement that
// names the aged row by its partition key must still find it.
func TestAgedRowsStayReachableByPartitionKey(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE h (id BIGINT, v BIGINT, aged BOOLEAN)
		PARTITION BY RANGE (id) (PARTITION VALUES < 100 USING EXTENDED STORAGE, PARTITION OTHERS)
		WITH AGING ON (aged)`)
	exec1(t, e, "INSERT INTO h VALUES (50, 1, FALSE), (150, 2, TRUE), (250, 3, FALSE)")
	if moved, err := e.RunAgingContext(context.Background(), "h"); err != nil || moved != 1 {
		t.Fatalf("aging moved %d rows, err %v", moved, err)
	}
	if res := exec1(t, e, "SELECT v FROM h WHERE id = 150"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("SELECT of the aged row = %v", res.Rows)
	}
	if res := exec1(t, e, "SELECT COUNT(*) FROM h WHERE id >= 100"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows with id >= 100: %v, want 2", res.Rows)
	}
	if res := exec1(t, e, "UPDATE h SET v = 20 WHERE id = 150"); res.Affected != 1 {
		t.Fatalf("UPDATE of the aged row affected %d rows", res.Affected)
	}
	if res := exec1(t, e, "SELECT v FROM h WHERE id = 150"); len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("aged row after UPDATE = %v", res.Rows)
	}
	if res := exec1(t, e, "DELETE FROM h WHERE id = 150"); res.Affected != 1 {
		t.Fatalf("DELETE of the aged row affected %d rows", res.Affected)
	}
	if res := exec1(t, e, "SELECT COUNT(*) FROM h"); res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows left: %v, want 2", res.Rows)
	}
}
