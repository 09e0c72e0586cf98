package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hana/internal/dist"
	"hana/internal/value"
)

// keyedPlacements create table t (k PRIMARY KEY, p, v, aged) on every
// placement. The hybrid table is partitioned on p, not on its key, and ages
// flagged rows into its cold partition, so one key can be asked for in
// both partitions.
var keyedPlacements = []keyedPlacement{
	{"column", Config{}, "CREATE TABLE", ""},
	{"row", Config{}, "CREATE ROW TABLE", ""},
	{"extended", Config{}, "CREATE TABLE", " USING EXTENDED STORAGE"},
	{"hybrid", Config{}, "CREATE TABLE", ` PARTITION BY RANGE (p) (PARTITION VALUES < 10 USING EXTENDED STORAGE, PARTITION OTHERS)
		WITH AGING ON (aged)`},
	{"2-shard", Config{Topology: dist.Topology{Shards: 2}}, "CREATE TABLE", ""},
}

type keyedPlacement struct {
	name         string
	cfg          Config
	create, tail string
}

func newKeyed(t *testing.T, pl keyedPlacement) *Engine {
	t.Helper()
	cfg := pl.cfg
	cfg.ExtendedStorageDir = t.TempDir()
	e := New(cfg)
	exec1(t, e, pl.create+` t (k BIGINT PRIMARY KEY, p BIGINT NOT NULL, v VARCHAR(10), aged BOOLEAN)`+pl.tail)
	return e
}

// One keyed DML script on every placement: the same statements succeed,
// the same ones are refused with the same error, leaving the table as it
// was, and the table ends with the same rows. Keys are checked across
// partitions and after aging moved their rows, an UPDATE may keep or change
// its row's key, a deleted key can be inserted again, and no write path
// stores a NULL key or a NULL in a NOT NULL column.
func TestPlacementsAgreeOnKeyedDML(t *testing.T) {
	const age = "AGE"
	row := func(k, p int64, v string) value.Row {
		return value.Row{value.NewInt(k), value.NewInt(p), value.NewString(v), value.NewBool(false)}
	}
	script := []struct {
		sql  string      // age runs aging where the table has it
		load []value.Row // a BulkLoad instead of sql
		dup  bool        // refused as a duplicate key
		err  bool        // refused otherwise
	}{
		{sql: `INSERT INTO t VALUES (1, 5, 'a', FALSE), (2, 50, 'b', TRUE), (3, 60, 'c', FALSE)`},
		{sql: `INSERT INTO t VALUES (2, 7, 'dup', FALSE)`, dup: true},
		{sql: `INSERT INTO t VALUES (4, 8, 'd', FALSE), (1, 70, 'x', FALSE)`, dup: true},
		{sql: `UPDATE t SET v = 'B' WHERE k = 2`},
		{sql: `UPDATE t SET k = 10 WHERE k = 3`},
		{sql: `UPDATE t SET k = 1 WHERE k = 10`, dup: true},
		{sql: `UPDATE t SET p = 6 WHERE k = 10`},
		{sql: `DELETE FROM t WHERE k = 1`},
		{sql: `INSERT INTO t VALUES (1, 80, 'again', TRUE)`},
		{sql: age},
		{sql: `INSERT INTO t VALUES (2, 90, 'dup', FALSE)`, dup: true},
		{sql: `UPDATE t SET v = 'aged' WHERE aged = TRUE`},
		{sql: `INSERT INTO t SELECT k + 100, p, v, aged FROM t WHERE k < 3`},
		{sql: `INSERT INTO t SELECT k, p, v, aged FROM t WHERE k = 101`, dup: true},
		{sql: `UPDATE t SET k = NULL WHERE k = 2`, err: true},
		{sql: `UPDATE t SET p = NULL`, err: true},
		{sql: `INSERT INTO t (k, v) VALUES (40, 'no p')`, err: true},
		{load: []value.Row{row(30, 3, "l"), row(31, 40, "m"), row(30, 41, "n")}, dup: true},
		{load: []value.Row{row(32, 3, "l"), row(2, 40, "m")}, dup: true},
		{load: []value.Row{row(32, 3, "l"), row(33, 40, "m")}},
		{sql: `UPDATE t SET k = k + 1000 WHERE k >= 30`},
	}
	var wantSteps, wantRows []string
	for _, pl := range keyedPlacements {
		t.Run(pl.name, func(t *testing.T) {
			e := newKeyed(t, pl)
			ctx := context.Background()
			read := func() []string { return renderRows(exec1(t, e, `SELECT k, p, v, aged FROM t`).Rows) }
			var steps []string
			for i, st := range script {
				before := read()
				var err error
				switch {
				case st.load != nil:
					err = e.BulkLoad("t", st.load)
				case st.sql == age && pl.name == "hybrid":
					var moved int64
					if moved, err = e.RunAgingContext(ctx, "t"); err == nil && moved != 2 {
						t.Fatalf("aging moved %d rows, want 2", moved)
					}
				case st.sql == age:
				default:
					_, err = e.ExecuteContext(ctx, st.sql)
				}
				switch {
				case st.dup && !errors.Is(err, ErrDuplicateKey):
					t.Fatalf("step %d (%s): %v, want %v", i, st.sql, err, ErrDuplicateKey)
				case st.err && err == nil:
					t.Fatalf("step %d (%s) succeeded, want it refused", i, st.sql)
				case !st.dup && !st.err && err != nil:
					t.Fatalf("step %d (%s): %v", i, st.sql, err)
				}
				if after := read(); err != nil && !sameRows(after, before) {
					t.Fatalf("step %d (%s) was refused but changed the table: %v, then %v", i, st.sql, before, after)
				}
				steps = append(steps, fmt.Sprint(err))
			}
			rows := read()
			if wantSteps == nil {
				wantSteps, wantRows = steps, rows
				if len(rows) != 7 {
					t.Fatalf("the script left %d rows: %v", len(rows), rows)
				}
				return
			}
			if !sameRows(steps, wantSteps) {
				t.Errorf("outcomes %q, want %q", steps, wantSteps)
			}
			if !sameRows(rows, wantRows) {
				t.Errorf("rows %v, want %v", rows, wantRows)
			}
		})
	}
}

// An UPDATE refused for a NULL in a NOT NULL column stamps nothing, so the
// explicit transaction it ran in can still commit with the table unchanged.
func TestRefusedNullUpdateLeavesTransactionClean(t *testing.T) {
	for _, pl := range keyedPlacements {
		t.Run(pl.name, func(t *testing.T) {
			e := newKeyed(t, pl)
			exec1(t, e, `INSERT INTO t VALUES (1, 5, 'a', FALSE), (2, 50, 'b', FALSE)`)
			ctx := context.Background()
			tx := e.Begin()
			for _, q := range []string{`UPDATE t SET p = NULL WHERE k = 1`, `UPDATE t SET k = NULL WHERE k = 2`} {
				if _, err := e.ExecuteContext(ctx, q, WithTx(tx)); err == nil {
					t.Fatalf("%s succeeded", q)
				}
			}
			if err := e.CommitTxContext(ctx, tx); err != nil {
				t.Fatal(err)
			}
			want := []string{"1|5|a", "2|50|b"}
			if got := renderRows(exec1(t, e, `SELECT k, p, v FROM t`).Rows); !sameRows(got, want) {
				t.Fatalf("after the commit: %v, want %v", got, want)
			}
		})
	}
}
