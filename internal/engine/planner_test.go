package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

func TestTableRelocationStrategy(t *testing.T) {
	e := New(Config{ExtendedStorageDir: t.TempDir(), SemiJoinThreshold: 8})
	exec1(t, e, `CREATE TABLE big_local (k BIGINT, v DOUBLE)`)
	var rows []value.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i % 50)), value.NewDouble(float64(i))})
	}
	if err := e.BulkLoad("big_local", rows); err != nil {
		t.Fatal(err)
	}
	_ = e.Analyze("big_local")
	exec1(t, e, `CREATE TABLE cold_fact (k BIGINT, amount DOUBLE) USING EXTENDED STORAGE`)
	var facts []value.Row
	for i := 0; i < 5000; i++ {
		facts = append(facts, value.Row{value.NewInt(int64(i % 50)), value.NewDouble(1)})
	}
	if err := e.BulkLoad("cold_fact", facts); err != nil {
		t.Fatal(err)
	}
	// Local side far above the semijoin threshold → relocation strategy.
	res := exec1(t, e, `SELECT SUM(amount) FROM big_local, cold_fact WHERE big_local.k = cold_fact.k`)
	if res.Rows[0][0].Float() != 100000 { // 1000 local × 100 matching facts per key / 50 keys... verify via count
		// Each local row matches 5000/50 = 100 facts → 1000*100 rows, each amount 1.
		t.Fatalf("relocated join sum = %v", res.Rows[0][0])
	}
	m := e.Metrics.Snapshot()
	if m.RelocationsChosen == 0 {
		t.Fatalf("relocation not chosen:\n%s", res.Plan)
	}
	if !strings.Contains(res.Plan, "Table Relocation") {
		t.Fatalf("plan must label relocation:\n%s", res.Plan)
	}
}

// A leaf's estimate reads the column's histogram however the column is
// written: bare, qualified by the table name or by an alias.
func TestLeafEstimateUsesHistogramsOfQualifiedColumns(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	rows := make([]value.Row, 1000)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i % 100))}
	}
	if err := e.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	p := e.newPlanner(context.Background(), nil, nil, 1)
	for _, c := range []struct {
		alias, conj string
		want        string // the default selectivities give 50 and 330
	}{
		{"", "a = 5", "10"},
		{"", "t.a = 5", "10"},
		{"x", "x.a = 5", "10"},
		{"", "a < 10", "101"},
		{"", "t.a < 10", "101"},
		{"x", "x.a < 10", "101"},
	} {
		l, err := p.leafOf(&sqlparse.TableRef{Parts: []string{"t"}, Alias: c.alias})
		if err != nil {
			t.Fatal(err)
		}
		conj, err := sqlparse.ParseExpr(c.conj)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%.0f", l.estimate([]expr.Expr{conj})); got != c.want {
			t.Errorf("FROM t %s WHERE %s: estimate %s rows, want %s", c.alias, c.conj, got, c.want)
		}
	}
}

func TestRemoteLikeAndInPushdown(t *testing.T) {
	e, srv := newFederatedSetup(t)
	res := exec1(t, e, `SELECT c_custkey FROM V_CUSTOMER
		WHERE c_name LIKE 'C0%' AND c_custkey IN (1, 2, 3, 44)`)
	// C01..C09 ∩ {1,2,3,44} = {1,2,3}.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "LIKE") || !strings.Contains(res.Plan, "IN") {
		t.Fatalf("predicates must ship:\n%s", res.Plan)
	}
	// The shipped statement ran remotely (no local filtering of all rows).
	if srv.MR.Counters.MapInputRecords.Load() == 0 {
		t.Fatal("remote scan should have executed")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	e, _ := newFederatedSetup(t)
	// Reference a column that does not exist remotely.
	if _, err := e.ExecuteContext(context.Background(), `SELECT no_such_col FROM V_CUSTOMER`); err == nil {
		t.Fatal("remote resolution error must propagate")
	}
}

func TestUnknownTableFunction(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.ExecuteContext(context.Background(), `SELECT * FROM NOT_A_FUNCTION()`); err == nil {
		t.Fatal("unknown function must error")
	}
}

func TestOrderByExpression(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT, b BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1, 9), (2, 5), (3, 1)`)
	res := exec1(t, e, `SELECT a FROM t ORDER BY a + b DESC`)
	if res.Rows[0][0].Int() != 1 || res.Rows[2][0].Int() != 3 {
		t.Fatalf("order by expr = %v", res.Rows)
	}
}

func TestBetweenDatePushdownToExtended(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE log (id BIGINT, d DATE) USING EXTENDED STORAGE`)
	var rows []value.Row
	base, _ := value.ParseDate("2014-01-01")
	for i := 0; i < 8192; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewDate(base.I + int64(i/32))})
	}
	if err := e.BulkLoad("log", rows); err != nil {
		t.Fatal(err)
	}
	ext, _ := e.ExtendedStore()
	before := ext.Stats.ChunksSkipped.Load()
	res := exec1(t, e, `SELECT COUNT(*) FROM log WHERE d BETWEEN DATE '2014-01-05' AND DATE '2014-01-06'`)
	if res.Rows[0][0].Int() != 64 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if ext.Stats.ChunksSkipped.Load() <= before {
		t.Fatal("zone maps should skip chunks for the date range")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE counter (id BIGINT, n BIGINT)`)
	exec1(t, e, `INSERT INTO counter VALUES (1, 0)`)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.ExecuteContext(context.Background(), fmt.Sprintf(`INSERT INTO counter VALUES (%d, 1)`, 100+w*10+i)); err != nil {
					errs <- err
					return
				}
				if _, err := e.ExecuteContext(context.Background(), `SELECT COUNT(*), SUM(n) FROM counter`); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := exec1(t, e, `SELECT COUNT(*) FROM counter`)
	if res.Rows[0][0].Int() != 81 {
		t.Fatalf("final count = %v", res.Rows[0][0])
	}
}

func TestSemijoinSkippedWhenLocalTooLarge(t *testing.T) {
	e, _ := newFederatedSetup(t)
	// Lower the threshold so NATION (3 rows) still qualifies but a larger
	// build side would not; verify the IN-list does not explode.
	res := exec1(t, e, `SELECT COUNT(*) FROM nation, V_CUSTOMER WHERE n_nationkey = c_nationkey`)
	if res.Rows[0][0].Int() == 0 {
		t.Fatal("join returned nothing")
	}
	// The shipped statement may include an IN(...) over 3 nation keys.
	m := e.Metrics.Snapshot()
	if m.RemoteQueries == 0 {
		t.Fatal("no remote query ran")
	}
}

func TestInsertSelectFromRemote(t *testing.T) {
	e, _ := newFederatedSetup(t)
	exec1(t, e, `CREATE TABLE local_copy (k BIGINT, n VARCHAR(10))`)
	res := exec1(t, e, `INSERT INTO local_copy SELECT c_custkey, c_name FROM V_CUSTOMER WHERE c_custkey <= 5`)
	if res.Affected != 5 {
		t.Fatalf("copied %d", res.Affected)
	}
	res = exec1(t, e, `SELECT COUNT(*) FROM local_copy`)
	if res.Rows[0][0].Int() != 5 {
		t.Fatal("rows")
	}
}

func TestHintIgnoredOnLocalQuery(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	// The hint is legal but has no effect without a remote source.
	res := exec1(t, e, `SELECT a FROM t WHERE a = 1 WITH HINT (USE_REMOTE_CACHE)`)
	if len(res.Rows) != 1 {
		t.Fatal("hinted local query")
	}
}
