package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"hana/internal/expr"
	"hana/internal/value"
)

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("expected SelectStmt, got %T", st)
	}
	return sel
}

func TestSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT product_name, brand_name FROM VIRTUAL_PRODUCT")
	if len(s.Items) != 2 {
		t.Fatalf("items = %d", len(s.Items))
	}
	tr, ok := s.From.(*TableRef)
	if !ok || tr.Name() != "VIRTUAL_PRODUCT" {
		t.Fatalf("from = %#v", s.From)
	}
}

func TestSelectStarAndLimit(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM t LIMIT 10")
	if !s.Items[0].Star || s.Limit != 10 {
		t.Fatal("star/limit parse failed")
	}
	s = mustSelect(t, "SELECT TOP 5 * FROM t")
	if s.Limit != 5 {
		t.Fatal("TOP parse failed")
	}
	s = mustSelect(t, "SELECT t.* FROM t")
	if !s.Items[0].Star || s.Items[0].Qual != "t" {
		t.Fatal("qualified star parse failed")
	}
}

func TestPaperJoinQuery(t *testing.T) {
	// The example query from §4.4 of the paper.
	s := mustSelect(t, `SELECT c_custkey, c_name, o_orderkey, o_orderstatus
		FROM customer JOIN orders ON c_custkey = o_custkey
		WHERE c_mktsegment = 'HOUSEHOLD'`)
	j, ok := s.From.(*JoinExpr)
	if !ok || j.Type != JoinInner {
		t.Fatalf("join parse: %#v", s.From)
	}
	if j.On == nil || s.Where == nil {
		t.Fatal("missing ON/WHERE")
	}
}

func TestRemoteCacheHint(t *testing.T) {
	s := mustSelect(t, `SELECT a FROM t WHERE a > 1 WITH HINT (USE_REMOTE_CACHE)`)
	if !s.HasHint("use_remote_cache") {
		t.Fatal("hint not recognized")
	}
	if s.HasHint("NO_SUCH") {
		t.Fatal("phantom hint")
	}
}

func TestGroupByHavingOrderBy(t *testing.T) {
	s := mustSelect(t, `SELECT l_orderkey, SUM(l_quantity) q FROM lineitem
		GROUP BY l_orderkey HAVING SUM(l_quantity) > 300 ORDER BY q DESC, l_orderkey`)
	if len(s.GroupBy) != 1 || s.Having == nil || len(s.OrderBy) != 2 {
		t.Fatal("clauses missing")
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatal("order direction")
	}
	if s.Items[1].Alias != "q" {
		t.Fatalf("alias = %q", s.Items[1].Alias)
	}
}

func TestDateLiteralAndBetween(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM lineitem WHERE l_shipdate >= DATE '1994-01-01'
		AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24`)
	conjs := expr.SplitConjuncts(s.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
	if _, ok := conjs[1].(*expr.Between); !ok {
		t.Fatalf("expected Between, got %T", conjs[1])
	}
}

func TestInListAndSubquery(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM orders WHERE o_orderpriority IN ('1-URGENT', '2-HIGH')`)
	if _, ok := s.Where.(*expr.In); !ok {
		t.Fatalf("IN list: %T", s.Where)
	}
	s = mustSelect(t, `SELECT * FROM orders WHERE o_orderkey IN
		(SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)`)
	iq, ok := s.Where.(*InSubqueryExpr)
	if !ok {
		t.Fatalf("IN subquery: %T", s.Where)
	}
	if len(iq.Sel.GroupBy) != 1 {
		t.Fatal("inner group by missing")
	}
	s = mustSelect(t, `SELECT * FROM partsupp WHERE ps_suppkey NOT IN
		(SELECT s_suppkey FROM supplier WHERE s_comment LIKE '%Customer%Complaints%')`)
	iq, ok = s.Where.(*InSubqueryExpr)
	if !ok || !iq.Negate {
		t.Fatalf("NOT IN subquery: %#v", s.Where)
	}
}

func TestExistsCorrelated(t *testing.T) {
	// TPC-H Q4 pattern.
	s := mustSelect(t, `SELECT o_orderpriority, COUNT(*) AS order_count FROM orders
		WHERE o_orderdate >= DATE '1993-07-01' AND EXISTS (
			SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
		GROUP BY o_orderpriority`)
	conjs := expr.SplitConjuncts(s.Where)
	if len(conjs) != 2 {
		t.Fatalf("conjuncts = %d", len(conjs))
	}
	ex, ok := conjs[1].(*ExistsExpr)
	if !ok || ex.Negate {
		t.Fatalf("EXISTS: %T", conjs[1])
	}
}

func TestLeftOuterJoinWithComplexOn(t *testing.T) {
	// TPC-H Q13 pattern.
	s := mustSelect(t, `SELECT c_custkey, COUNT(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
		GROUP BY c_custkey`)
	j := s.From.(*JoinExpr)
	if j.Type != JoinLeft {
		t.Fatal("left join")
	}
	if len(expr.SplitConjuncts(j.On)) != 2 {
		t.Fatal("compound ON")
	}
}

func TestCommaJoin(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM customer, orders, lineitem
		WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey`)
	j, ok := s.From.(*JoinExpr)
	if !ok || j.Type != JoinCross {
		t.Fatalf("comma join: %#v", s.From)
	}
	if _, ok := j.L.(*JoinExpr); !ok {
		t.Fatal("left-deep comma join expected")
	}
}

func TestSubqueryInFrom(t *testing.T) {
	s := mustSelect(t, `SELECT avg(c_count) FROM (SELECT c_custkey, COUNT(o_orderkey) c_count
		FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey GROUP BY c_custkey) c_orders`)
	sq, ok := s.From.(*SubqueryTable)
	if !ok || sq.Alias != "c_orders" {
		t.Fatalf("derived table: %#v", s.From)
	}
}

func TestCaseExpr(t *testing.T) {
	s := mustSelect(t, `SELECT SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
		THEN 1 ELSE 0 END) FROM orders`)
	f := s.Items[0].Expr.(*expr.Func)
	if _, ok := f.Args[0].(*expr.CaseWhen); !ok {
		t.Fatalf("CASE inside SUM: %T", f.Args[0])
	}
	// Simple CASE form.
	s = mustSelect(t, `SELECT CASE a WHEN 1 THEN 'one' ELSE 'other' END FROM t`)
	if _, ok := s.Items[0].Expr.(*expr.CaseWhen); !ok {
		t.Fatal("simple CASE")
	}
}

func TestCountDistinctStar(t *testing.T) {
	s := mustSelect(t, `SELECT COUNT(DISTINCT ps_suppkey), COUNT(*) FROM partsupp`)
	f0 := s.Items[0].Expr.(*expr.Func)
	if !f0.Distinct {
		t.Fatal("DISTINCT flag")
	}
	f1 := s.Items[1].Expr.(*expr.Func)
	if !f1.Star {
		t.Fatal("star flag")
	}
}

func TestTableFunctionInFrom(t *testing.T) {
	// §4.3 virtual function usage.
	s := mustSelect(t, `SELECT A.EQUIP_ID, B.PRESSURE FROM EQUIPMENTS A
		JOIN PLANT100_SENSOR_RECORDS() B ON A.EQUIP_ID = B.EQUIP_ID WHERE B.PRESSURE > 90`)
	j := s.From.(*JoinExpr)
	tf, ok := j.R.(*TableFuncRef)
	if !ok || tf.Name != "PLANT100_SENSOR_RECORDS" || tf.Alias != "B" {
		t.Fatalf("table function: %#v", j.R)
	}
}

func TestCreateTableExtendedStorage(t *testing.T) {
	st, err := Parse(`CREATE TABLE psa_data (id BIGINT PRIMARY KEY, payload VARCHAR(200), load_date DATE)
		USING EXTENDED STORAGE`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if ct.Storage != StorageExtended || ct.Hybrid {
		t.Fatalf("storage=%v hybrid=%v", ct.Storage, ct.Hybrid)
	}
	if !ct.Cols[0].PrimKey || !ct.Cols[0].NotNull {
		t.Fatal("primary key flags")
	}
	if ct.Cols[2].Kind != value.KindDate {
		t.Fatal("date column kind")
	}
}

func TestCreateHybridTableWithPartitions(t *testing.T) {
	st, err := Parse(`CREATE TABLE sales (id BIGINT, region VARCHAR(10), amount DOUBLE, sale_date DATE, cold BOOLEAN)
		USING HYBRID EXTENDED STORAGE
		PARTITION BY RANGE (sale_date) (
			PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
			PARTITION OTHERS)
		WITH AGING ON (cold)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if !ct.Hybrid || ct.PartitionBy != "sale_date" || len(ct.Partitions) != 2 {
		t.Fatalf("%+v", ct)
	}
	if ct.Partitions[0].Storage != StorageExtended || ct.Partitions[1].Storage != StorageColumn {
		t.Fatal("partition storage classes")
	}
	if !ct.Partitions[1].Others {
		t.Fatal("OTHERS partition")
	}
	if ct.AgingColumn != "cold" {
		t.Fatalf("aging column = %q", ct.AgingColumn)
	}
}

func TestCreateRowAndFlexibleTable(t *testing.T) {
	st, err := Parse(`CREATE ROW TABLE config (k VARCHAR(50), v VARCHAR(200))`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*CreateTableStmt).Storage != StorageRow {
		t.Fatal("row storage")
	}
	st, err = Parse(`CREATE FLEXIBLE TABLE events (id BIGINT)`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.(*CreateTableStmt).Flexible {
		t.Fatal("flexible flag")
	}
}

func TestCreateRemoteSourcePaperSyntax(t *testing.T) {
	// Verbatim from §4.2 of the paper.
	st, err := Parse(`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc"
		CONFIGURATION 'DSN=hive1'
		WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`)
	if err != nil {
		t.Fatal(err)
	}
	rs := st.(*CreateRemoteSourceStmt)
	if rs.Name != "HIVE1" || rs.Adapter != "hiveodbc" || rs.Configuration != "DSN=hive1" {
		t.Fatalf("%+v", rs)
	}
	if rs.CredentialType != "PASSWORD" || rs.Credentials != "user=dfuser;password=dfpass" {
		t.Fatalf("%+v", rs)
	}
}

func TestCreateVirtualTablePaperSyntax(t *testing.T) {
	st, err := Parse(`CREATE VIRTUAL TABLE "VIRTUAL_PRODUCT" AT "HIVE1"."dflo"."dflo"."product"`)
	if err != nil {
		t.Fatal(err)
	}
	vt := st.(*CreateVirtualTableStmt)
	if vt.Name != "VIRTUAL_PRODUCT" || vt.Source != "HIVE1" || len(vt.Remote) != 3 {
		t.Fatalf("%+v", vt)
	}
	if vt.Remote[2] != "product" {
		t.Fatal("remote path")
	}
}

func TestCreateVirtualFunctionPaperSyntax(t *testing.T) {
	st, err := Parse(`CREATE VIRTUAL FUNCTION PLANT100_SENSOR_RECORDS()
		RETURNS TABLE (EQUIP_ID VARCHAR(30), PRESSURE DOUBLE)
		CONFIGURATION 'hana.mapred.driver.class = com.customer.hadoop.SensorMRDriver;
		hana.mapred.jobFiles = job.jar, library.jar;
		mapred.reducer.count = 1'
		AT MRSERVER`)
	if err != nil {
		t.Fatal(err)
	}
	vf := st.(*CreateVirtualFunctionStmt)
	if vf.Name != "PLANT100_SENSOR_RECORDS" || len(vf.Returns) != 2 || vf.Source != "MRSERVER" {
		t.Fatalf("%+v", vf)
	}
	if vf.Returns[1].Kind != value.KindDouble {
		t.Fatal("returns column kind")
	}
	if !strings.Contains(vf.Configuration, "SensorMRDriver") {
		t.Fatal("configuration text")
	}
}

func TestInsertVariants(t *testing.T) {
	st, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Values) != 2 || len(ins.Cols) != 2 {
		t.Fatalf("%+v", ins)
	}
	st, err = Parse(`INSERT INTO hot SELECT * FROM staging WHERE ok = TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*InsertStmt).Select == nil {
		t.Fatal("insert-select")
	}
}

func TestUpdateDelete(t *testing.T) {
	st, err := Parse(`UPDATE t SET a = a + 1, b = 'x' WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	st, err = Parse(`DELETE FROM t WHERE id = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*DeleteStmt).Where == nil {
		t.Fatal("delete where")
	}
}

func TestDropStatements(t *testing.T) {
	for _, c := range []struct{ sql, kind string }{
		{"DROP TABLE t", "TABLE"},
		{"DROP TABLE IF EXISTS t", "TABLE"},
		{"DROP REMOTE SOURCE HIVE1", "REMOTE SOURCE"},
		{"DROP VIRTUAL TABLE vt", "VIRTUAL TABLE"},
	} {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if st.(*DropStmt).Kind != c.kind {
			t.Fatalf("%s kind = %s", c.sql, st.(*DropStmt).Kind)
		}
	}
}

func TestKeepClauseCCL(t *testing.T) {
	s := mustSelect(t, `SELECT cell_id, AVG(signal) FROM network_events GROUP BY cell_id KEEP 5 MINUTES`)
	if s.Keep == nil || s.Keep.Unit != KeepMinutes || s.Keep.N != 5 {
		t.Fatalf("keep = %+v", s.Keep)
	}
	if s.Keep.Duration() != 5*60e6 {
		t.Fatal("duration micros")
	}
	s = mustSelect(t, `SELECT * FROM events KEEP 100 ROWS`)
	if s.Keep.Unit != KeepRows || s.Keep.Duration() != 0 {
		t.Fatal("row window")
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE a (x BIGINT);
		INSERT INTO a VALUES (1);
		-- a comment
		SELECT * FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
}

func TestParams(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM t WHERE a = ? AND b = ?`)
	conjs := expr.SplitConjuncts(s.Where)
	p0 := conjs[0].(*expr.BinOp).R.(*expr.Param)
	p1 := conjs[1].(*expr.BinOp).R.(*expr.Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Fatalf("param indexes %d %d", p0.Index, p1.Index)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"FOO BAR",
		"CREATE TABLE t (a NOTATYPE)",
		"SELECT * FROM t WHERE a = 'unterminated",
		"INSERT INTO t",
		"SELECT * FROM t GROUP BY",
		// An unterminated type parameter list used to spin forever at EOF.
		"CREATE TABLE t (a VARCHAR(",
		"CREATE TABLE t (a DECIMAL(10,",
		"SELECT CAST(a AS VARCHAR(",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestRenderSelectRoundTrip(t *testing.T) {
	orig := `SELECT c_custkey, COUNT(*) AS n FROM customer JOIN orders ON c_custkey = o_custkey WHERE c_mktsegment = 'HOUSEHOLD' GROUP BY c_custkey HAVING COUNT(*) > 2 ORDER BY n DESC LIMIT 10`
	s := mustSelect(t, orig)
	rendered := RenderSelect(s)
	// The rendered text must parse back to an equivalent statement.
	s2 := mustSelect(t, rendered)
	if RenderSelect(s2) != rendered {
		t.Fatalf("render not stable:\n%s\n%s", rendered, RenderSelect(s2))
	}
	for _, want := range []string{"GROUP BY", "HAVING", "ORDER BY", "LIMIT 10", "'HOUSEHOLD'"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered %q missing %q", rendered, want)
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	or, ok := s.Where.(*expr.BinOp)
	if !ok || or.Op != expr.OpOr {
		t.Fatalf("top must be OR: %#v", s.Where)
	}
	// Arithmetic: 1 + 2 * 3 = 7.
	s = mustSelect(t, `SELECT 1 + 2 * 3`)
	v, err := s.Items[0].Expr.Eval(nil)
	if err != nil || v.Int() != 7 {
		t.Fatalf("precedence eval: %v %v", v, err)
	}
	// Parens: (1 + 2) * 3 = 9.
	s = mustSelect(t, `SELECT (1 + 2) * 3`)
	v, _ = s.Items[0].Expr.Eval(nil)
	if v.Int() != 9 {
		t.Fatal("paren precedence")
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	s := mustSelect(t, `SELECT "weird col" FROM "My Table"`)
	if s.From.(*TableRef).Name() != "My Table" {
		t.Fatal("quoted table name")
	}
	if s.Items[0].Expr.(*expr.ColRef).Name != "weird col" {
		t.Fatal("quoted column name")
	}
}

func TestNegativeNumbersFolded(t *testing.T) {
	s := mustSelect(t, `SELECT * FROM t WHERE a > -5 AND b < -2.5`)
	conjs := expr.SplitConjuncts(s.Where)
	lit := conjs[0].(*expr.BinOp).R.(*expr.Literal)
	if lit.Val.Int() != -5 {
		t.Fatal("negative int literal")
	}
}

func TestParserNeverPanics(t *testing.T) {
	// Arbitrary input must produce a value or an error, never a panic.
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", s, r)
			}
		}()
		_, _ = Parse(s)
		_, _ = ParseExpr(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAlterTableParse(t *testing.T) {
	st, err := Parse(`ALTER TABLE t ADD (b VARCHAR(10), c DOUBLE)`)
	if err != nil {
		t.Fatal(err)
	}
	at := st.(*AlterTableStmt)
	if at.Table != "t" || len(at.Add) != 2 || at.Add[1].Kind != value.KindDouble {
		t.Fatalf("%+v", at)
	}
	if _, err := Parse(`ALTER TABLE t DROP x`); err == nil {
		t.Fatal("unsupported ALTER must error")
	}
}

func TestCommentsInsideStatements(t *testing.T) {
	s := mustSelect(t, `SELECT a /* inline
		comment */ FROM t -- trailing
		WHERE a > 1`)
	if s.Where == nil {
		t.Fatal("comment handling")
	}
}
