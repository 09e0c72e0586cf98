package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hana/internal/dist"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// orderPlacements create tables t (k, s, x) and u (k, s) on every
// placement; the hybrid tables keep k < 3 in extended storage.
var orderPlacements = []struct {
	name         string
	cfg          Config
	create, tail string
}{
	{"column", Config{}, "CREATE TABLE", ""},
	{"row", Config{}, "CREATE ROW TABLE", ""},
	{"extended", Config{}, "CREATE TABLE", " USING EXTENDED STORAGE"},
	{"hybrid", Config{}, "CREATE TABLE", " PARTITION BY RANGE (k) (PARTITION VALUES < 3 USING EXTENDED STORAGE, PARTITION OTHERS)"},
	{"2-shard", Config{Topology: dist.Topology{Shards: 2}}, "CREATE TABLE", ""},
}

// orderReads are the statements read before and after orderDML, with the
// rows each must return in each phase, rendered by renderOrdered. Sort keys
// leave no tie between rows that render differently, so one order is right.
// An empty want is an error.
var orderReads = []struct {
	sql          string
	before, then string
}{
	// ORDER BY a position sorts by that output column.
	{`SELECT TOP 2 s FROM u ORDER BY 1`, `NULL / ''`, `'' / 'a'`},
	// A qualified key is the column it qualifies, not the first of its name.
	{`SELECT t.s, u.s FROM t JOIN u ON t.k = u.k ORDER BY u.s`,
		`'b',NULL / 'm','' / 'z','b' / NULL,'c' / 'z','m' / 'z','z'`,
		`'b','a' / 'z','b' / NULL,'c' / 'z','m' / 'z','z'`},
	// A bare name is the output column of that name, not the input one.
	{`SELECT s AS k, k AS s FROM u ORDER BY k`,
		`NULL,2 / '',4 / 'b',1 / 'c',3 / 'm',1 / 'z',1`,
		`'',4 / 'a',2 / 'b',1 / 'c',3 / 'm',1 / 'z',1`},
	// Positions with TOP; -0.0 and 0.0 tie, NULL sorts below every value.
	{`SELECT TOP 3 k, x FROM t ORDER BY 2 DESC, 1`, `4,2.5 / 1,-0 / 2,0`, `7,1.5 / 1,-0 / 6,-0`},
	{`SELECT TOP 2 s, COUNT(*) AS n FROM t GROUP BY s ORDER BY 2 DESC, 1`, `'b',2 / NULL,1`, `NULL,2 / 'b',2`},
	// Cold predicates over NULL-heavy columns.
	{`SELECT k, x FROM t WHERE x < 1 ORDER BY k DESC`, `2,0 / 1,-0`, `6,-0 / 1,-0`},
	{`SELECT k FROM t WHERE s = 'b' OR s IS NULL ORDER BY 1`, `2 / 3 / 5`, `2 / 3 / 5 / 6`},
	// Two output columns named s, and a position past the select list.
	{`SELECT t.s, u.s FROM t JOIN u ON t.k = u.k ORDER BY s`, ``, ``},
	{`SELECT k FROM t ORDER BY 2`, ``, ``},
}

var orderDML = []string{
	`UPDATE u SET s = 'a' WHERE s IS NULL`,
	`DELETE FROM t WHERE k = 4`,
	`INSERT INTO t VALUES (6, NULL, -0.0), (7, 'y', 1.5)`,
	`UPDATE t SET x = NULL WHERE k = 2`,
}

// renderOrdered renders rows in order, a VARCHAR quoted so that the empty
// string and NULL differ.
func renderOrdered(rows []value.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		vs := make([]string, len(r))
		for j, v := range r {
			vs[j] = v.String()
			if v.K == value.KindVarchar {
				vs[j] = "'" + v.S + "'"
			}
		}
		out[i] = strings.Join(vs, ",")
	}
	return strings.Join(out, " / ")
}

// ORDER BY binds each key to one output column — by position, by output
// name or alias, or by repeating a select item — and sorts by it, on every
// placement, at widths 1 and 4, before and after DML, and on a statement
// shipped whole to Hive. The answers are fixed, not compared between
// placements: a defect every placement shares must show too.
func TestOrderByBindsOutputColumns(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, e *Engine, phase string, width int) {
		t.Helper()
		for _, r := range orderReads {
			want := r.before
			if phase == "then" {
				want = r.then
			}
			res, err := e.ExecuteContext(ctx, r.sql, WithParallelism(width))
			switch {
			case want == "" && err == nil:
				t.Errorf("%s %q: %s, want an error", phase, r.sql, renderOrdered(res.Rows))
			case want != "" && err != nil:
				t.Errorf("%s %q: %v", phase, r.sql, err)
			case want != "" && renderOrdered(res.Rows) != want:
				t.Errorf("%s %q:\n got %s\nwant %s", phase, r.sql, renderOrdered(res.Rows), want)
			}
		}
	}
	var final map[string][]value.Row
	for _, pl := range orderPlacements {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				cfg := pl.cfg
				cfg.ExtendedStorageDir = t.TempDir()
				e := New(cfg)
				exec1(t, e, pl.create+" t (k BIGINT NOT NULL, s VARCHAR(10), x DOUBLE)"+pl.tail)
				exec1(t, e, pl.create+" u (k BIGINT NOT NULL, s VARCHAR(10))"+pl.tail)
				exec1(t, e, `INSERT INTO t VALUES (1, 'z', -0.0), (2, 'b', 0.0), (3, NULL, NULL), (4, 'm', 2.5), (5, 'b', NULL)`)
				exec1(t, e, `INSERT INTO u VALUES (1, 'z'), (1, 'b'), (1, 'm'), (2, NULL), (3, 'c'), (4, '')`)
				check(t, e, "before", width)
				for _, sql := range orderDML {
					exec1(t, e, sql)
				}
				check(t, e, "then", width)
				if final == nil {
					final = map[string][]value.Row{"t": exec1(t, e, `SELECT * FROM t`).Rows, "u": exec1(t, e, `SELECT * FROM u`).Rows}
				}
			})
		}
	}

	// Hive holds the tables as the DML left them, and the engine reaches
	// them as virtual tables: every read ships whole, and ORDER BY binds
	// against the shipped statement's result.
	cluster := hdfs.NewCluster(2, hdfs.WithBlockSize(4096), hdfs.WithReplication(1))
	ms := hive.NewMetastore(cluster, "/warehouse")
	host := "hive-" + t.Name()
	hive.RegisterServer(hive.NewServer(host, ms, mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 2, ReduceSlots: 2, DefaultReducers: 2})))
	t.Cleanup(func() { hive.UnregisterServer(host) })
	schemas := map[string]*value.Schema{
		"t": value.NewSchema(value.Column{Name: "k", Kind: value.KindInt}, value.Column{Name: "s", Kind: value.KindVarchar}, value.Column{Name: "x", Kind: value.KindDouble}),
		"u": value.NewSchema(value.Column{Name: "k", Kind: value.KindInt}, value.Column{Name: "s", Kind: value.KindVarchar}),
	}
	e := New(Config{ExtendedStorageDir: t.TempDir()})
	e.Registry().Register("hiveodbc", hive.NewAdapterFactory())
	exec1(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION 'DSN=%s'`, host))
	for name, schema := range schemas {
		if _, err := ms.CreateTable(name, schema, false); err != nil {
			t.Fatal(err)
		}
		if err := ms.LoadRows(name, final[name], 2); err != nil {
			t.Fatal(err)
		}
		exec1(t, e, fmt.Sprintf(`CREATE VIRTUAL TABLE %s AT "HIVE1"."dflo"."dflo"."%s"`, name, name))
	}
	for _, width := range []int{1, 4} {
		check(t, e, "then", width)
	}
	for _, r := range orderReads[:len(orderReads)-2] {
		if res := exec1(t, e, "EXPLAIN "+r.sql); !strings.Contains(res.Plan, "Remote Query") {
			t.Errorf("%q did not ship whole:\n%s", r.sql, res.Plan)
		}
	}
}
