package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hana/internal/value"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	return New(Config{ExtendedStorageDir: t.TempDir()})
}

func exec1(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.ExecuteContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE products (id BIGINT PRIMARY KEY, name VARCHAR(50), price DOUBLE)`)
	exec1(t, e, `INSERT INTO products VALUES (1, 'widget', 9.99), (2, 'gadget', 19.99), (3, 'doohickey', 4.99)`)
	res := exec1(t, e, `SELECT name, price FROM products WHERE price > 5 ORDER BY price DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "gadget" || res.Rows[1][0].String() != "widget" {
		t.Fatalf("order: %v", res.Rows)
	}
	if res.Schema.Cols[0].Name != "name" {
		t.Fatalf("schema = %v", res.Schema)
	}
}

func TestInsertColumnListAndNulls(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT, b VARCHAR(10), c DOUBLE)`)
	exec1(t, e, `INSERT INTO t (b, a) VALUES ('x', 7)`)
	res := exec1(t, e, `SELECT a, b, c FROM t`)
	if res.Rows[0][0].Int() != 7 || res.Rows[0][1].String() != "x" || !res.Rows[0][2].IsNull() {
		t.Fatalf("row = %v", res.Rows[0])
	}
	// NOT NULL enforcement.
	exec1(t, e, `CREATE TABLE nn (a BIGINT NOT NULL)`)
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO nn VALUES (NULL)`); err == nil {
		t.Fatal("NOT NULL must be enforced")
	}
}

func TestUpdateDelete(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (id BIGINT, v DOUBLE)`)
	exec1(t, e, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	res := exec1(t, e, `UPDATE t SET v = v + 1 WHERE id >= 2`)
	if res.Affected != 2 {
		t.Fatalf("updated %d", res.Affected)
	}
	res = exec1(t, e, `SELECT SUM(v) FROM t`)
	if res.Rows[0][0].Float() != 62 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
	res = exec1(t, e, `DELETE FROM t WHERE id = 1`)
	if res.Affected != 1 {
		t.Fatal("delete")
	}
	res = exec1(t, e, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestSnapshotIsolationAcrossTransactions(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)

	reader := e.Begin() // snapshot before writer commits
	writer := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (2)`, WithTx(writer)); err != nil {
		t.Fatal(err)
	}
	// Writer sees own write; reader does not.
	res, err := e.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`, WithTx(writer))
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Fatalf("writer view: %v %v", res, err)
	}
	res, err = e.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`, WithTx(reader))
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("reader view: %v %v", res, err)
	}
	if err := e.CommitTxContext(context.Background(), writer); err != nil {
		t.Fatal(err)
	}
	// Reader's snapshot still excludes the commit.
	res, _ = e.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`, WithTx(reader))
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("snapshot must be stable")
	}
	_ = e.CommitTxContext(context.Background(), reader)
	// New statement sees everything.
	res = exec1(t, e, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("post-commit view")
	}
}

func TestRollbackUndoesWrites(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (1)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(tx); err != nil {
		t.Fatal(err)
	}
	res := exec1(t, e, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("rollback must undo insert")
	}
}

func TestWriteWriteConflict(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	t1 := e.Begin()
	t2 := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `DELETE FROM t WHERE id = 1`, WithTx(t1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), `DELETE FROM t WHERE id = 1`, WithTx(t2)); err == nil {
		t.Fatal("second deleter must conflict")
	}
	_ = e.Rollback(t2)
	if err := e.CommitTxContext(context.Background(), t1); err != nil {
		t.Fatal(err)
	}
}

func TestJoinsAndAggregation(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE customer (c_custkey BIGINT, c_name VARCHAR(30), c_mktsegment VARCHAR(15))`)
	exec1(t, e, `CREATE TABLE orders (o_orderkey BIGINT, o_custkey BIGINT, o_total DOUBLE)`)
	exec1(t, e, `INSERT INTO customer VALUES (1,'alice','HOUSEHOLD'), (2,'bob','AUTO'), (3,'carol','HOUSEHOLD')`)
	exec1(t, e, `INSERT INTO orders VALUES (10,1,100), (11,1,50), (12,2,75), (13,3,20)`)

	// Paper §4.4 example query shape.
	res := exec1(t, e, `SELECT c_custkey, c_name, o_orderkey
		FROM customer JOIN orders ON c_custkey = o_custkey
		WHERE c_mktsegment = 'HOUSEHOLD' ORDER BY o_orderkey`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows = %v", res.Rows)
	}

	// Comma join + aggregation + having + alias order.
	res = exec1(t, e, `SELECT c_name, SUM(o_total) total, COUNT(*) n
		FROM customer, orders WHERE c_custkey = o_custkey
		GROUP BY c_name HAVING SUM(o_total) > 30 ORDER BY total DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("agg rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "alice" || res.Rows[0][1].Float() != 150 || res.Rows[0][2].Int() != 2 {
		t.Fatalf("top group = %v", res.Rows[0])
	}
}

func TestLeftOuterJoinCountBug(t *testing.T) {
	// TPC-H Q13 shape: COUNT(col) over null-extended rows counts 0.
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE customer (c_custkey BIGINT)`)
	exec1(t, e, `CREATE TABLE orders (o_orderkey BIGINT, o_custkey BIGINT, o_comment VARCHAR(40))`)
	exec1(t, e, `INSERT INTO customer VALUES (1), (2)`)
	exec1(t, e, `INSERT INTO orders VALUES (10, 1, 'normal')`)
	res := exec1(t, e, `SELECT c_custkey, COUNT(o_orderkey) c_count
		FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
		GROUP BY c_custkey ORDER BY c_custkey`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].Int() != 1 || res.Rows[1][1].Int() != 0 {
		t.Fatalf("counts = %v", res.Rows)
	}
}

func TestInSubqueryAndExists(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE orders (o_orderkey BIGINT, o_prio VARCHAR(10))`)
	exec1(t, e, `CREATE TABLE lineitem (l_orderkey BIGINT, l_qty DOUBLE, l_commit DATE, l_receipt DATE)`)
	exec1(t, e, `INSERT INTO orders VALUES (1,'HIGH'), (2,'LOW'), (3,'HIGH')`)
	exec1(t, e, `INSERT INTO lineitem VALUES
		(1, 400, DATE '1994-01-01', DATE '1994-02-01'),
		(2, 10,  DATE '1994-01-05', DATE '1994-01-02'),
		(3, 100, DATE '1994-01-01', DATE '1994-01-01')`)

	// Uncorrelated IN subquery with HAVING (Q18 shape).
	res := exec1(t, e, `SELECT o_orderkey FROM orders WHERE o_orderkey IN
		(SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_qty) > 300)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("IN subquery = %v", res.Rows)
	}

	// Correlated EXISTS (Q4 shape).
	res = exec1(t, e, `SELECT o_prio, COUNT(*) FROM orders WHERE EXISTS
		(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_commit < l_receipt)
		GROUP BY o_prio ORDER BY o_prio`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "HIGH" || res.Rows[0][1].Int() != 1 {
		t.Fatalf("EXISTS = %v", res.Rows)
	}

	// NOT IN subquery (Q16 shape).
	res = exec1(t, e, `SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN
		(SELECT l_orderkey FROM lineitem WHERE l_qty > 50) ORDER BY o_orderkey`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("NOT IN = %v", res.Rows)
	}

	// NOT EXISTS.
	res = exec1(t, e, `SELECT COUNT(*) FROM orders WHERE NOT EXISTS
		(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_qty > 50)`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("NOT EXISTS = %v", res.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (v DOUBLE)`)
	exec1(t, e, `INSERT INTO t VALUES (1), (2), (3), (10)`)
	res := exec1(t, e, `SELECT COUNT(*) FROM t WHERE v > (SELECT AVG(v) FROM t)`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("scalar subquery = %v", res.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (g BIGINT, v DOUBLE)`)
	exec1(t, e, `INSERT INTO t VALUES (1,10),(1,20),(2,30)`)
	res := exec1(t, e, `SELECT AVG(s) FROM (SELECT g, SUM(v) s FROM t GROUP BY g) x`)
	if res.Rows[0][0].Float() != 30 {
		t.Fatalf("derived = %v", res.Rows)
	}
}

func TestDistinctAndCountDistinct(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT, b VARCHAR(5))`)
	exec1(t, e, `INSERT INTO t VALUES (1,'x'),(1,'x'),(2,'y'),(2,'z')`)
	res := exec1(t, e, `SELECT DISTINCT a FROM t`)
	if len(res.Rows) != 2 {
		t.Fatal("distinct")
	}
	res = exec1(t, e, `SELECT COUNT(DISTINCT b) FROM t`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count distinct = %v", res.Rows)
	}
}

// −0.0 equals 0.0 under Compare, so every operator that hashes a key — the
// hash aggregate, DISTINCT, the hash join, the IN key set, the outer join —
// must agree with the nested loop, which compares.
func TestNegativeZeroEqualsZero(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE a (x DOUBLE)`)
	exec1(t, e, `CREATE TABLE b (y DOUBLE)`)
	exec1(t, e, `INSERT INTO a VALUES (0.0), (0.0 * -1.0)`)
	exec1(t, e, `INSERT INTO b VALUES (0.0 * -1.0)`)
	for _, c := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM a GROUP BY x`, "[[2]]"},
		{`SELECT COUNT(*) FROM (SELECT DISTINCT x FROM a) d`, "[[1]]"},
		{`SELECT COUNT(*) FROM a, b WHERE x = y`, "[[2]]"},
		{`SELECT COUNT(*) FROM a, b WHERE x <= y AND x >= y`, "[[2]]"},
		{`SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)`, "[[2]]"},
		{`SELECT COUNT(*) FROM a LEFT JOIN b ON x = y WHERE y IS NULL`, "[[0]]"},
	} {
		if got := fmt.Sprint(exec1(t, e, c.sql).Rows); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
	}
}

func TestExtendedStorageTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE psa (id BIGINT, payload VARCHAR(40)) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psa VALUES (1,'a'), (2,'b'), (3,'c')`)
	res := exec1(t, e, `SELECT COUNT(*) FROM psa`)
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("ext count = %v", res.Rows)
	}
	// Filter pushdown happens in the extended scan.
	res = exec1(t, e, `SELECT payload FROM psa WHERE id >= 2 ORDER BY id`)
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "b" {
		t.Fatalf("ext filter = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "Extended Storage") {
		t.Fatalf("plan should mention extended storage:\n%s", res.Plan)
	}
	// DML on extended tables participates in transactions.
	exec1(t, e, `DELETE FROM psa WHERE id = 1`)
	res = exec1(t, e, `SELECT COUNT(*) FROM psa`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("ext delete")
	}
	exec1(t, e, `UPDATE psa SET payload = 'updated' WHERE id = 2`)
	res = exec1(t, e, `SELECT payload FROM psa WHERE id = 2`)
	if res.Rows[0][0].String() != "updated" {
		t.Fatalf("ext update = %v", res.Rows)
	}
}

func TestExtendedStorageRollback(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE psa (id BIGINT) USING EXTENDED STORAGE`)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psa VALUES (1)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	_ = e.Rollback(tx)
	res := exec1(t, e, `SELECT COUNT(*) FROM psa`)
	if res.Rows[0][0].Int() != 0 {
		t.Fatal("aborted extended insert must be invisible")
	}
}

func TestHybridTableAndAging(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE sales (id BIGINT, amount DOUBLE, sale_date DATE, cold BOOLEAN)
		PARTITION BY RANGE (sale_date) (
			PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
			PARTITION OTHERS)
		WITH AGING ON (cold)`)
	exec1(t, e, `INSERT INTO sales VALUES
		(1, 10, DATE '2013-05-01', FALSE),
		(2, 20, DATE '2014-06-01', FALSE),
		(3, 30, DATE '2014-07-01', TRUE),
		(4, 40, DATE '2015-01-01', FALSE)`)

	// Row routing: id 1 went cold by range.
	parts, err := e.PartitionRowCounts("sales")
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Rows != 1 || !parts[0].Cold || parts[1].Rows != 3 {
		t.Fatalf("partition counts = %+v", parts)
	}

	// Query spans both partitions (Union Plan).
	res := exec1(t, e, `SELECT SUM(amount) FROM sales`)
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("sum = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "Union Plan") {
		t.Fatalf("expected union plan:\n%s", res.Plan)
	}

	// Aging moves the flagged row (id 3) to cold storage.
	moved, err := e.RunAgingContext(context.Background(), "sales")
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	parts, _ = e.PartitionRowCounts("sales")
	if parts[0].Rows != 2 || parts[1].Rows != 2 {
		t.Fatalf("post-aging counts = %+v", parts)
	}
	// Data is intact.
	res = exec1(t, e, `SELECT SUM(amount) FROM sales`)
	if res.Rows[0][0].Float() != 100 {
		t.Fatalf("post-aging sum = %v", res.Rows)
	}
	// Partition pruning: predicate restricted to hot range should not touch cold.
	res = exec1(t, e, `SELECT SUM(amount) FROM sales WHERE sale_date >= DATE '2014-01-01' AND cold = FALSE`)
	if res.Rows[0][0].Float() != 60 {
		t.Fatalf("pruned sum = %v", res.Rows)
	}
}

func TestFlexibleTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE FLEXIBLE TABLE events (id BIGINT)`)
	exec1(t, e, `INSERT INTO events (id) VALUES (1)`)
	// Insert with a brand-new column extends the schema on the fly.
	exec1(t, e, `INSERT INTO events (id, source) VALUES (2, 'sensor-7')`)
	res := exec1(t, e, `SELECT id, source FROM events ORDER BY id`)
	if len(res.Rows) != 2 {
		t.Fatal("rows")
	}
	if !res.Rows[0][1].IsNull() || res.Rows[1][1].String() != "sensor-7" {
		t.Fatalf("flexible rows = %v", res.Rows)
	}
}

func TestRowStoreTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE ROW TABLE config (k VARCHAR(20) PRIMARY KEY, v VARCHAR(20))`)
	exec1(t, e, `INSERT INTO config VALUES ('a','1'), ('b','2')`)
	res := exec1(t, e, `SELECT v FROM config WHERE k = 'b'`)
	if res.Rows[0][0].String() != "2" {
		t.Fatal("row store point query")
	}
	if !strings.Contains(res.Plan, "Row Scan") {
		t.Fatalf("plan = %s", res.Plan)
	}
}

func TestInsertSelectBetweenStores(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE hot (id BIGINT, v DOUBLE)`)
	exec1(t, e, `CREATE TABLE archive (id BIGINT, v DOUBLE) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO hot VALUES (1,1),(2,2),(3,3)`)
	res := exec1(t, e, `INSERT INTO archive SELECT id, v FROM hot WHERE id > 1`)
	if res.Affected != 2 {
		t.Fatal("insert-select")
	}
	res = exec1(t, e, `SELECT COUNT(*) FROM archive`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("archive count")
	}
}

func TestDropTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	exec1(t, e, `DROP TABLE t`)
	if _, err := e.ExecuteContext(context.Background(), `SELECT * FROM t`); err == nil {
		t.Fatal("dropped table must not resolve")
	}
	exec1(t, e, `DROP TABLE IF EXISTS t`)
}

func TestExplain(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	res := exec1(t, e, `EXPLAIN SELECT a FROM t WHERE a = 1`)
	if !strings.Contains(res.Plan, "Column Scan") || !strings.Contains(res.Plan, "Project") {
		t.Fatalf("explain = %s", res.Plan)
	}
}

func TestAnalyzeBuildsHistograms(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT, s VARCHAR(10))`)
	for i := 0; i < 50; i++ {
		exec1(t, e, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'v%d')`, i%10, i%3))
	}
	if err := e.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	meta, _ := e.Catalog().Table("t")
	if meta.Stats.RowCount != 50 {
		t.Fatalf("rowcount = %d", meta.Stats.RowCount)
	}
	h := meta.Histogram("a")
	if h == nil || h.Total != 50 {
		t.Fatal("histogram missing")
	}
	if est := h.EstimateEq(value.NewInt(3)); est < 3 || est > 8 {
		t.Fatalf("estimate = %f", est)
	}
}

func TestCaseExpressionQuery(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE o (prio VARCHAR(10))`)
	exec1(t, e, `INSERT INTO o VALUES ('1-URGENT'), ('2-HIGH'), ('5-LOW')`)
	res := exec1(t, e, `SELECT SUM(CASE WHEN prio = '1-URGENT' OR prio = '2-HIGH' THEN 1 ELSE 0 END) FROM o`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("case agg = %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE ts (d DATE, v DOUBLE)`)
	exec1(t, e, `INSERT INTO ts VALUES (DATE '2014-01-05', 1), (DATE '2014-03-05', 2), (DATE '2015-01-05', 4)`)
	res := exec1(t, e, `SELECT YEAR(d), SUM(v) FROM ts GROUP BY YEAR(d) ORDER BY YEAR(d)`)
	if len(res.Rows) != 2 || res.Rows[0][1].Float() != 3 || res.Rows[1][1].Float() != 4 {
		t.Fatalf("group expr = %v", res.Rows)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := newTestEngine(t)
	res := exec1(t, e, `SELECT 1 + 2, UPPER('x')`)
	if res.Rows[0][0].Int() != 3 || res.Rows[0][1].String() != "X" {
		t.Fatalf("no-from select = %v", res.Rows)
	}
}

func TestTableAliases(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE n (nk BIGINT, name VARCHAR(20))`)
	exec1(t, e, `INSERT INTO n VALUES (1,'a'), (2,'b')`)
	// Self join with aliases.
	res := exec1(t, e, `SELECT x.name, y.name FROM n x, n y WHERE x.nk = 1 AND y.nk = 2`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "a" || res.Rows[0][1].String() != "b" {
		t.Fatalf("self join = %v", res.Rows)
	}
}
