package hana

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hana/internal/bench"
	"hana/internal/engine"
	"hana/internal/tpch"
	"hana/internal/value"
)

// fedEdgeCases are statements over the federated TPC-H tables that stress
// which columns a shipped statement and each Hive stage carry: a leaf that
// reads no column at all, the same column name out of two relations, a left
// join whose right side is read only through its key, and a correlated
// EXISTS on a column the outer select list leaves out. The last four ship
// whole to Hive only through the front half it shares with the engine: an
// uncorrelated EXISTS and NOT EXISTS, a scalar subquery in WHERE, and a
// join with no equality key.
var fedEdgeCases = []string{
	`SELECT COUNT(*) FROM lineitem`,
	`SELECT COUNT(*) FROM lineitem WHERE l_quantity > 10`,
	`SELECT COUNT(*) FROM orders JOIN customer ON o_custkey = c_custkey`,
	`SELECT COUNT(*) FROM orders JOIN customer ON o_custkey = c_custkey WHERE o_totalprice > 1000`,
	`SELECT n_name, COUNT(*) FROM nation, customer WHERE n_nationkey = c_nationkey GROUP BY n_name`,
	`SELECT a.k, COUNT(*), MAX(b.n) FROM (SELECT o_custkey AS k FROM orders WHERE o_totalprice > 1000) a
		JOIN (SELECT c_custkey AS k, c_nationkey AS n FROM customer) b ON a.k = b.k GROUP BY a.k`,
	`SELECT c_nationkey, COUNT(*), COUNT(o_custkey) FROM customer LEFT JOIN orders ON c_custkey = o_custkey
		WHERE c_acctbal > 0 GROUP BY c_nationkey`,
	`SELECT c_name FROM customer WHERE c_acctbal > 0
		AND EXISTS (SELECT o_orderkey FROM orders WHERE o_custkey = c_custkey AND o_orderpriority = '1-URGENT')`,
	`SELECT COUNT(*) FROM customer WHERE EXISTS (SELECT o_orderkey FROM orders WHERE o_totalprice > 1000)`,
	`SELECT COUNT(*) FROM customer WHERE NOT EXISTS (SELECT o_orderkey FROM orders WHERE o_totalprice < 0)`,
	`SELECT COUNT(*) FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)`,
	`SELECT COUNT(*) FROM part, partsupp WHERE p_partkey < ps_partkey AND ps_suppkey = 1`,
}

// TestFederatedTPCHMatchesLocal runs the twelve TPC-H queries and
// fedEdgeCases at the paper's §4.4 table split (tpch.FederatedTables at
// Hive, the rest and a PART copy local) in the three modes the benchmark
// times — normal, materializing and served from the remote cache — and
// compares every answer, row by row, with an engine holding all tables
// locally. Float sums are exact everywhere, so the rows must be identical
// to the bit; rows compare as a sorted multiset because a remote source
// fixes no row order.
func TestFederatedTPCHMatchesLocal(t *testing.T) {
	ctx := context.Background()
	schemas := tpch.Schemas()
	for _, seed := range []int64{2015, 2016} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fed, err := bench.SetupFederation(bench.FederationConfig{
				SF: 0.005, Seed: seed, MapSlots: 4, ReduceSlots: 4, ExtDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fed.Close()
			local := engine.New(engine.Config{ExtendedStorageDir: t.TempDir(), Parallelism: 2})
			for name, rows := range fed.Data.Tables {
				ddl := "CREATE TABLE " + name + " ("
				for i, c := range schemas[name].Cols {
					if i > 0 {
						ddl += ", "
					}
					ddl += c.Name + " " + c.Kind.String()
				}
				if _, err := local.ExecuteContext(ctx, ddl+")"); err != nil {
					t.Fatal(err)
				}
				if err := local.BulkLoad(name, rows); err != nil {
					t.Fatal(err)
				}
			}

			type query struct{ name, fed, local string }
			var queries []query
			for _, id := range tpch.QueryIDs() {
				q := tpch.Queries()[id]
				queries = append(queries, query{fmt.Sprintf("Q%d", id), tpch.UsesLocalPart(q), q.SQL})
			}
			for i, sql := range fedEdgeCases {
				queries = append(queries, query{fmt.Sprintf("edge%d", i), sql, sql})
			}
			for _, q := range queries {
				want, err := local.ExecuteContext(ctx, q.local)
				if err != nil {
					t.Fatalf("%s local: %v", q.name, err)
				}
				hinted := q.fed + " WITH HINT (USE_REMOTE_CACHE)"
				fed.Server.MS.CacheInvalidateAll()
				for _, mode := range []struct{ name, sql string }{
					{"normal", q.fed}, {"materialize", hinted}, {"cached", hinted},
				} {
					got, err := fed.Engine.ExecuteContext(ctx, mode.sql)
					if err != nil {
						t.Fatalf("%s %s: %v", q.name, mode.name, err)
					}
					if len(got.Rows) != len(want.Rows) {
						t.Fatalf("%s %s: %d rows, all-local %d", q.name, mode.name, len(got.Rows), len(want.Rows))
					}
					g, w := sortedRowLines(got.Rows), sortedRowLines(want.Rows)
					for i := range w {
						if g[i] != w[i] {
							t.Fatalf("%s %s: row %d diverged:\ngot:  %s\nwant: %s\nplan:\n%s", q.name, mode.name, i, g[i], w[i], got.Plan)
						}
					}
				}
			}
		})
	}
}

// sortedRowLines renders each row as renderBits does and sorts the lines.
func sortedRowLines(rows []value.Row) []string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.TrimSuffix(renderBits([]value.Row{r}), "\n")
	}
	sort.Strings(lines)
	return lines
}

// hiveJobsPerQuery is the map-reduce DAG Hive compiles for each TPC-H query
// a normal run ships at seed 2015: a leaf's filters run in the map phase of
// the join, semijoin or group-by job that reads it, and a block only the
// driver reads (Q14, Q19, Q4's EXISTS block) runs one map-only scan.
var hiveJobsPerQuery = map[int]int64{1: 1, 3: 3, 4: 3, 5: 2, 6: 1, 10: 2, 12: 2, 13: 3, 14: 1, 16: 1, 18: 5, 19: 1}

// TestHiveJobsPerTPCHQuery pins the DAG: each query's normal run at the
// §4.4 split starts exactly the jobs hiveJobsPerQuery lists, and a filtered
// block whose rows only the driver reads still runs its map-only scan.
func TestHiveJobsPerTPCHQuery(t *testing.T) {
	ctx := context.Background()
	fed, err := bench.SetupFederation(bench.FederationConfig{
		SF: 0.005, Seed: 2015, MapSlots: 4, ReduceSlots: 4, ExtDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	jobs := func(run func() error) int64 {
		t.Helper()
		before := fed.Server.MR.JobsRun.Load()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return fed.Server.MR.JobsRun.Load() - before
	}
	ids := tpch.QueryIDs()
	if len(ids) != len(hiveJobsPerQuery) {
		t.Fatalf("%d queries, %d pinned", len(ids), len(hiveJobsPerQuery))
	}
	for _, id := range ids {
		fed.Server.MS.CacheInvalidateAll()
		got := jobs(func() error {
			_, err := fed.Engine.ExecuteContext(ctx, tpch.UsesLocalPart(tpch.Queries()[id]))
			return err
		})
		if got != hiveJobsPerQuery[id] {
			t.Errorf("Q%d ran %d map-reduce jobs, want %d", id, got, hiveJobsPerQuery[id])
		}
	}
	for sql, want := range map[string]int64{
		`SELECT l_orderkey FROM lineitem WHERE l_quantity > 45`: 1,
		`SELECT l_orderkey FROM lineitem`:                       0,
	} {
		if got := jobs(func() error { _, err := fed.Server.Exec.Query(sql); return err }); got != want {
			t.Errorf("%s ran %d jobs at Hive, want %d", sql, got, want)
		}
	}
}
