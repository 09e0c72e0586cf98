package sqlparse

import "testing"

// FuzzParse: every entry point must return — a statement or an error —
// on arbitrary input, never panic and never spin. The seeds run as
// ordinary subtests under `go test`: one statement per statement kind,
// the truncated inputs that have tripped the parser before, the two
// unterminated type lists that used to hang typeName at EOF, and the lexer's
// comment and quote edges.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		`SELECT c_custkey, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey WHERE c_mktsegment = 'HOUSEHOLD' GROUP BY c_custkey HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 10`,
		`SELECT TOP 5 * FROM t WHERE a IN (SELECT b FROM u) AND d BETWEEN DATE '1994-01-01' AND ? WITH HINT (USE_REMOTE_CACHE)`,
		`SELECT cell_id, AVG(signal) FROM network_events GROUP BY cell_id KEEP 5 MINUTES`,
		`SELECT CAST(a AS VARCHAR(10)), CASE a WHEN 1 THEN 'one' ELSE 'other' END FROM f() x`,
		`EXPLAIN SELECT * FROM t`,
		`CREATE TABLE sales (id BIGINT PRIMARY KEY, region VARCHAR(10), sale_date DATE, cold BOOLEAN)
			USING HYBRID EXTENDED STORAGE
			PARTITION BY RANGE (sale_date) (
				PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
				PARTITION OTHERS)
			WITH AGING ON (cold)`,
		`CREATE FLEXIBLE TABLE events (id BIGINT)`,
		`ALTER TABLE t ADD (b VARCHAR(10), c DOUBLE)`,
		`DROP TABLE IF EXISTS t`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`,
		`INSERT INTO hot SELECT * FROM staging WHERE ok = TRUE`,
		`UPDATE t SET a = a + 1, b = 'x' WHERE id = 5`,
		`DELETE FROM t WHERE id = 5`,
		`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION 'DSN=hive1'
			WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`,
		`CREATE VIRTUAL TABLE "VIRTUAL_PRODUCT" AT "HIVE1"."dflo"."dflo"."product"`,
		`CREATE VIRTUAL FUNCTION F() RETURNS TABLE (EQUIP_ID VARCHAR(30), PRESSURE DOUBLE)
			CONFIGURATION 'mapred.reducer.count = 1' AT MRSERVER`,
		`CREATE TABLE a (x BIGINT); INSERT INTO a VALUES (1);; SELECT * FROM a -- done`,
		"SELECT (((((", "SELECT * FROM t WHERE a IN (", "'", `"`,
		"SELECT CASE", "CREATE TABLE t (", ";;;;", "SELECT -", "SELECT ?",
		"SELECT * FROM t ORDER BY", "SELECT a FROM t KEEP", "\x00\x01",
		"SELECT 99999999999999999999999999999",
		"CREATE TABLE t (a VARCHAR(",
		"SELECT CAST(a AS VARCHAR(",
	} {
		f.Add(s)
	}
	for _, c := range lexEdgeCases {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = Parse(src)
		_, _ = ParseAll(src)
		_, _ = ParseExpr(src)
	})
}
