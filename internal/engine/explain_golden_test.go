package engine

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hana/internal/dist"
	"hana/internal/fed"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/obs"
	"hana/internal/value"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/explain_golden.txt from the current planner")

// goldenLog records, per statement run at width, the plan and what the
// statement moved: rows scanned and the delta of every engine metric
// counter.
type goldenLog struct {
	t     *testing.T
	width int
	b     strings.Builder
}

func (g *goldenLog) section(name string) { fmt.Fprintf(&g.b, "### %s\n\n", name) }

func (g *goldenLog) query(e *Engine, sql string, opts ...ExecOption) {
	g.t.Helper()
	before := metricValues(e)
	res, err := e.ExecuteContext(context.Background(), sql, append(opts, WithParallelism(g.width))...)
	if err != nil {
		g.t.Fatalf("%s: %v", sql, err)
	}
	fmt.Fprintf(&g.b, "-- %s\n%s", strings.Join(strings.Fields(sql), " "), res.Plan)
	fmt.Fprintf(&g.b, "rows_scanned=%d", res.Stats.RowsScanned)
	after := metricValues(e)
	mt := reflect.TypeOf(e.Metrics)
	for i := range after {
		if d := after[i] - before[i]; d != 0 {
			fmt.Fprintf(&g.b, " %s=%+d", mt.Field(i).Name, d)
		}
	}
	g.b.WriteString("\n\n")
}

// metricValues loads every counter of the engine's Metrics, in field order.
func metricValues(e *Engine) []int64 {
	v := reflect.ValueOf(e.Metrics)
	out := make([]int64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Interface().(*obs.Counter).Load()
	}
	return out
}

// TestExplainGolden pins the plan text and counter deltas of a corpus that
// prints every leaf and strategy label the planner has: local column and row
// scans, sharded scans, aggregates and broadcast joins, the extended-storage
// strategies, table relocation, remote scans (merged, cached, fallback),
// ship-whole, table functions, derived tables, semi joins and subquery
// placement. Every line is one exec.PlanNode as its renderer prints it,
// with the rows the node emitted: Block.Finish's stage nodes (Having,
// Project, Distinct, Sort, Limit) included. Row counts do not depend on the
// statement's width, so the corpus runs at widths 1 and 4 against the one
// file. A planner change that must not change plans leaves the file
// byte-identical; regenerate it with
// `go test ./internal/engine -run TestExplainGolden -update`.
func TestExplainGolden(t *testing.T) {
	path := filepath.Join("testdata", "explain_golden.txt")
	for _, width := range []int{1, 4} {
		g := &goldenLog{t: t, width: width}
		goldenLocal(t, g)
		goldenDist(t, g)
		goldenFederated(t, g)
		goldenFallback(t, g)

		if *updateGolden && width == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(g.b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.b.String(); got != string(want) {
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("width %d: %s differs at line %d:\n got: %s\nwant: %s", width, path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("width %d: %s differs in length: got %d lines, want %d", width, path, len(gl), len(wl))
		}
	}
}

// goldenLocal: one engine holding in-memory, row-store, extended and hybrid
// tables, with a semijoin threshold of 8 so both sides of it are reachable.
func goldenLocal(t *testing.T, g *goldenLog) {
	g.section("local, extended and hybrid tables (semijoin threshold 8)")
	e := New(Config{ExtendedStorageDir: t.TempDir(), SemiJoinThreshold: 8})
	exec1(t, e, `CREATE TABLE t (a BIGINT, b BIGINT)`)
	exec1(t, e, `CREATE ROW TABLE r (k VARCHAR(10) PRIMARY KEY, v VARCHAR(10))`)
	exec1(t, e, `INSERT INTO r VALUES ('a', '1'), ('b', '2')`)
	exec1(t, e, `CREATE TABLE small (id BIGINT)`)
	exec1(t, e, `INSERT INTO small VALUES (3), (5), (70)`)
	exec1(t, e, `CREATE TABLE big_local (k BIGINT, v BIGINT)`)
	exec1(t, e, `CREATE TABLE psa (id BIGINT, payload VARCHAR(20)) USING EXTENDED STORAGE`)
	exec1(t, e, `CREATE TABLE sales (id BIGINT, amount DOUBLE, sale_date DATE, cold BOOLEAN)
		PARTITION BY RANGE (sale_date) (
			PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
			PARTITION OTHERS)
		WITH AGING ON (cold)`)
	var ts, bigs, psas, sales []value.Row
	for i := 0; i < 40; i++ {
		ts = append(ts, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
	}
	for i := 0; i < 50; i++ {
		bigs = append(bigs, value.Row{value.NewInt(int64(i % 10)), value.NewInt(int64(i % 7))})
	}
	for i := 0; i < 100; i++ {
		psas = append(psas, value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("p%d", i))})
	}
	base, _ := value.ParseDate("2013-12-01")
	for i := 0; i < 60; i++ {
		sales = append(sales, value.Row{value.NewInt(int64(i)), value.NewDouble(float64(i)),
			value.NewDate(base.I + int64(i)), value.NewBool(false)})
	}
	for name, rows := range map[string][]value.Row{"t": ts, "big_local": bigs, "psa": psas, "sales": sales} {
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.RegisterView(obs.ViewDef{
		Name:    "GOLDEN_VIEW",
		Columns: []value.Column{{Name: "x", Kind: value.KindInt}},
		Fill: func(out *value.Rows) error {
			out.Append(value.Row{value.NewInt(7)})
			out.Append(value.Row{value.NewInt(8)})
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		`SELECT 1 + 2`,
		`SELECT a, b FROM t WHERE a = 3`,
		`SELECT x.a FROM t x WHERE x.b = 2 AND x.a > 10`,
		`SELECT v FROM r WHERE k = 'b'`,
		`SELECT COUNT(*) FROM psa`,
		`SELECT payload FROM psa WHERE id >= 90 ORDER BY id`,
		`SELECT SUM(amount) FROM sales`,
		`SELECT SUM(amount) FROM sales WHERE sale_date >= DATE '2014-01-01'`,
		`SELECT SUM(amount) FROM sales WHERE sale_date < DATE '2013-12-10'`,
		`SELECT s.id, sales.amount FROM small s, sales WHERE s.id = sales.id`,
		`SELECT s.id, psa.payload FROM small s, psa WHERE s.id = psa.id`,
		`SELECT COUNT(*) FROM big_local, psa WHERE big_local.k = psa.id`,
		`SELECT COUNT(*) FROM t, big_local WHERE t.a = big_local.k AND t.b < big_local.v`,
		`SELECT COUNT(*) FROM t, small WHERE t.a < small.id`,
		`SELECT COUNT(*) FROM t LEFT JOIN small ON t.a = small.id`,
		`SELECT COUNT(*) FROM (SELECT a FROM t WHERE a > 10) d`,
		`SELECT d.b, d.n FROM (SELECT b, COUNT(*) n FROM t GROUP BY b) d, small WHERE d.n > small.id`,
		`SELECT t.a, big_local.v FROM t, big_local WHERE t.a = big_local.k LIMIT 4`,
		`SELECT x FROM GOLDEN_VIEW() WHERE x > 7`,
		`SELECT a FROM t WHERE a IN (SELECT id FROM small)`,
		`SELECT COUNT(*) FROM t, big_local WHERE t.a = big_local.k AND t.a IN (SELECT id FROM small)`,
		`SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT id FROM small)`,
		`SELECT COUNT(*) FROM t WHERE a NOT IN (SELECT id FROM small WHERE id > 100)`,
		`SELECT COUNT(*) FROM t WHERE NOT EXISTS (SELECT 1 FROM small WHERE small.id = t.a)`,
		`SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM big_local WHERE big_local.k = t.a AND big_local.v = t.b)`,
		`SELECT COUNT(*) FROM t WHERE EXISTS (SELECT 1 FROM small)`,
		`SELECT COUNT(*) FROM t WHERE a = (SELECT MAX(id) FROM small)`,
		`SELECT COUNT(*) FROM psa WHERE id IN (SELECT a FROM t)`,
		`SELECT COUNT(*) FROM psa WHERE id NOT IN (SELECT a FROM t)`,
		`EXPLAIN SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 5 ORDER BY b LIMIT 3`,
	} {
		g.query(e, q)
	}
}

// goldenDist: a two-shard engine whose broadcast threshold of 100 rows sits
// between its build sides; explicit-transaction and local-only reads of the
// sharded table scan on the engine node.
func goldenDist(t *testing.T, g *goldenLog) {
	g.section("sharded table, 2 shards (broadcast threshold 100)")
	e := New(Config{Topology: dist.Topology{Shards: 2}, SemiJoinThreshold: 100})
	exec1(t, e, `CREATE TABLE T (A INT PRIMARY KEY, B INT, C VARCHAR)`)
	exec1(t, e, `CREATE TABLE U (K INT, W INT)`)
	var rows []value.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i * 7 % 50)), value.NewString(fmt.Sprintf("v%d", i%13))})
	}
	if err := e.BulkLoad("T", rows); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `INSERT INTO U VALUES (1, 10), (2, 20), (3, 30)`)

	for _, q := range []string{
		`SELECT A, B FROM T WHERE A < 20`,
		`SELECT C, COUNT(*), SUM(B), AVG(B) FROM T GROUP BY C ORDER BY C`,
		`SELECT COUNT(*) FROM T WHERE A IN (SELECT A FROM T WHERE A < 5)`,
		`SELECT COUNT(*) FROM T WHERE B = 7 AND A IN (SELECT A FROM T WHERE A < 100)`,
		`SELECT x.A, y.B FROM T x JOIN T y ON x.A = y.A WHERE y.A < 30`,
		`SELECT T.A, U.W FROM T, U WHERE T.A = U.K`,
		`SELECT COUNT(*) FROM T x, T y WHERE x.A = y.B AND x.A < y.B`,
		`SELECT A, B FROM T WHERE EXISTS (SELECT 1 FROM U WHERE U.K = T.A AND U.W = T.B + 3)`,
		`SELECT COUNT(*) FROM T, U WHERE T.A = U.K AND T.B = 7 AND T.A IN (SELECT A FROM T WHERE A < 100)`,
	} {
		g.query(e, q)
	}
	g.query(e, `SELECT COUNT(*) FROM T WHERE A < 20`, WithLocalOnly())
	tx := e.Begin()
	g.query(e, `SELECT COUNT(*) FROM T WHERE A < 20`, WithTx(tx))
	if err := e.Rollback(tx); err != nil {
		t.Fatal(err)
	}
}

// goldenFederated: the Hive-backed setup of the federation tests, a
// join-less adapter over the same server, and a virtual function.
func goldenFederated(t *testing.T, g *goldenLog) {
	g.section("remote source HIVE1 (Hive), LIM (no joins), MRSERVER (virtual function)")
	e, srv := newFederatedSetup(t)
	e.Registry().Register("limited", func(cfg, cred map[string]string) (fed.Adapter, error) {
		a, err := hive.NewAdapterFactory()(map[string]string{"DSN": cfg["DSN"]}, nil)
		if err != nil {
			return nil, err
		}
		return &limitedAdapter{Adapter: a.(*hive.Adapter)}, nil
	})
	exec1(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE LIM ADAPTER limited CONFIGURATION 'DSN=%s'`, srv.Host))
	exec1(t, e, `CREATE VIRTUAL TABLE L_CUST AT "LIM"."db"."customer"`)
	exec1(t, e, `CREATE VIRTUAL TABLE L_ORD AT "LIM"."db"."orders"`)

	if err := srv.MS.Cluster().WriteFile("/golden/readings.log", []byte("EQ1 95.5\nEQ2 30.0\nEQ1 99.1\nEQ3 91.0\n")); err != nil {
		t.Fatal(err)
	}
	hive.RegisterDriver("golden.SensorDriver", func(*hive.Server, map[string]string) (*mapreduce.Job, error) {
		return &mapreduce.Job{
			Name:   "golden-sensor",
			Inputs: []string{"/golden/readings.log"},
			Output: "/tmp/golden-out",
			Map: func(_, line string, emit func(k, v string)) error {
				if f := strings.Fields(line); len(f) == 2 {
					emit("", f[0]+"\t"+f[1])
				}
				return nil
			},
		}, nil
	})
	exec1(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE MRSERVER ADAPTER hadoop
		CONFIGURATION 'webhdfs=http://%s:50070;webhcatalog=http://%s:50111'
		WITH CREDENTIAL TYPE 'password' USING 'user=hadoop;password=hadooppw'`, srv.Host, srv.Host))
	exec1(t, e, `CREATE VIRTUAL FUNCTION SENSOR_RECORDS() RETURNS TABLE (EQUIP_ID VARCHAR(30), PRESSURE DOUBLE)
		CONFIGURATION 'hana.mapred.driver.class = golden.SensorDriver' AT MRSERVER`)
	exec1(t, e, `CREATE TABLE equipments (equip_id VARCHAR(30), last_service DATE)`)
	exec1(t, e, `INSERT INTO equipments VALUES ('EQ1', DATE '2014-05-01'), ('EQ3', DATE '2013-01-01')`)

	for _, q := range []string{
		`SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'HOUSEHOLD'`,
		`SELECT c_mktsegment, COUNT(*) n, SUM(o_total) s FROM V_CUSTOMER JOIN V_ORDERS ON c_custkey = o_custkey GROUP BY c_mktsegment ORDER BY n DESC`,
		`SELECT c_name FROM V_CUSTOMER WHERE c_custkey < 5 WITH HINT (USE_REMOTE_CACHE)`,
		`SELECT c_name FROM V_CUSTOMER WHERE c_custkey < 5 WITH HINT (USE_REMOTE_CACHE)`,
		`SELECT n_name, COUNT(*) FROM nation, V_CUSTOMER WHERE n_nationkey = c_nationkey AND n_name = 'BRAZIL' GROUP BY n_name`,
		`SELECT n_name, c_name FROM nation, V_CUSTOMER WHERE n_nationkey = c_nationkey AND c_custkey < 4 WITH HINT (USE_REMOTE_CACHE)`,
		`SELECT n_name, c_name FROM nation, V_CUSTOMER WHERE n_nationkey = c_nationkey AND c_custkey < 4 WITH HINT (USE_REMOTE_CACHE)`,
		`SELECT COUNT(*) FROM V_CUSTOMER, V_ORDERS, nation WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey AND o_total > 30`,
		`SELECT COUNT(*) FROM V_CUSTOMER, nation WHERE c_nationkey = n_nationkey AND c_custkey IN (SELECT n_nationkey FROM nation)`,
		`SELECT COUNT(*) FROM nation WHERE n_nationkey IN (SELECT c_nationkey FROM V_CUSTOMER WHERE c_custkey < 3)`,
		`SELECT COUNT(*) FROM L_CUST JOIN L_ORD ON c_custkey = o_custkey`,
		`SELECT A.EQUIP_ID, B.PRESSURE FROM EQUIPMENTS A JOIN SENSOR_RECORDS() B ON A.EQUIP_ID = B.EQUIP_ID WHERE B.PRESSURE > 90`,
	} {
		g.query(e, q)
	}
}

// goldenFallback: a fake source behind fault injection; once its breaker
// is open, ship-whole declines and leaves answer from the fallback cache.
func goldenFallback(t *testing.T, g *goldenLog) {
	g.section("remote source FAKE1 under injected faults")
	e, inj, _, _ := newResilientSetup(t)
	g.query(e, `SELECT k, v FROM V_T`)
	g.query(e, `SELECT v, name FROM V_T, loc WHERE k = id`)
	inj.FailN("fed.query.fake1", 100)
	g.query(e, `SELECT k, v FROM V_T`)
	g.query(e, `SELECT k, v FROM V_T`)
	g.query(e, `SELECT v FROM V_T`)
}
