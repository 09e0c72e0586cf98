package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// newFederatedSetup builds an engine connected to an in-process Hive
// server holding CUSTOMER and ORDERS, with NATION local in the engine.
func newFederatedSetup(t *testing.T) (*Engine, *hive.Server) {
	t.Helper()
	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(64<<10), hdfs.WithReplication(2))
	ms := hive.NewMetastore(cluster, "/warehouse")
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 8, ReduceSlots: 4, DefaultReducers: 2})
	host := fmt.Sprintf("hive-%s", t.Name())
	srv := hive.NewServer(host, ms, mr)
	hive.RegisterServer(srv)
	t.Cleanup(func() { hive.UnregisterServer(host) })

	custSchema := value.NewSchema(
		value.Column{Name: "c_custkey", Kind: value.KindInt},
		value.Column{Name: "c_name", Kind: value.KindVarchar},
		value.Column{Name: "c_nationkey", Kind: value.KindInt},
		value.Column{Name: "c_mktsegment", Kind: value.KindVarchar},
	)
	ordSchema := value.NewSchema(
		value.Column{Name: "o_orderkey", Kind: value.KindInt},
		value.Column{Name: "o_custkey", Kind: value.KindInt},
		value.Column{Name: "o_total", Kind: value.KindDouble},
	)
	if _, err := ms.CreateTable("customer", custSchema, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateTable("orders", ordSchema, false); err != nil {
		t.Fatal(err)
	}
	segs := []string{"HOUSEHOLD", "AUTOMOBILE"}
	var custs, ords []value.Row
	for i := 1; i <= 20; i++ {
		custs = append(custs, value.Row{
			value.NewInt(int64(i)), value.NewString(fmt.Sprintf("C%02d", i)),
			value.NewInt(int64(i % 3)), value.NewString(segs[i%2]),
		})
	}
	for i := 1; i <= 60; i++ {
		ords = append(ords, value.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i%20 + 1)), value.NewDouble(float64(i)),
		})
	}
	_ = ms.LoadRows("customer", custs, 2)
	_ = ms.LoadRows("orders", ords, 2)

	e := New(Config{ExtendedStorageDir: t.TempDir(), EnableRemoteCache: true})
	e.Registry().Register("hiveodbc", hive.NewAdapterFactory())
	e.Registry().Register("hadoop", hive.NewHadoopAdapterFactory())
	exec1(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc"
		CONFIGURATION 'DSN=%s' WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`, host))
	exec1(t, e, `CREATE VIRTUAL TABLE V_CUSTOMER AT "HIVE1"."dflo"."dflo"."customer"`)
	exec1(t, e, `CREATE VIRTUAL TABLE V_ORDERS AT "HIVE1"."dflo"."dflo"."orders"`)
	exec1(t, e, `CREATE TABLE nation (n_nationkey BIGINT, n_name VARCHAR(25))`)
	exec1(t, e, `INSERT INTO nation VALUES (0,'ALGERIA'), (1,'ARGENTINA'), (2,'BRAZIL')`)
	return e, srv
}

func TestVirtualTableScan(t *testing.T) {
	e, _ := newFederatedSetup(t)
	res := exec1(t, e, `SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'HOUSEHOLD'`)
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !strings.Contains(res.Plan, "Remote Query [HIVE1]") {
		t.Fatalf("plan = %s", res.Plan)
	}
	m := e.Metrics.Snapshot()
	if m.RemoteQueries != 1 || m.RemoteRowsFetched != 10 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestWholeQueryShippedJoinAggregate(t *testing.T) {
	e, srv := newFederatedSetup(t)
	// All tables remote → the complete statement ships (§4.2).
	res := exec1(t, e, `SELECT c_mktsegment, COUNT(*) n, SUM(o_total) s
		FROM V_CUSTOMER JOIN V_ORDERS ON c_custkey = o_custkey
		GROUP BY c_mktsegment ORDER BY n DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "Remote Query") {
		t.Fatalf("whole query should ship:\n%s", res.Plan)
	}
	var total float64
	for _, r := range res.Rows {
		total += r[2].Float()
	}
	if total != 1830 { // sum 1..60
		t.Fatalf("sum = %f", total)
	}
	if srv.MR.JobsRun.Load() == 0 {
		t.Fatal("remote side must have run MR jobs")
	}
}

func TestMixedLocalRemoteJoinWithSemijoin(t *testing.T) {
	e, _ := newFederatedSetup(t)
	// NATION is local, customers remote. The local side after the filter is
	// tiny, so the optimizer ships its key as an IN-list (semijoin).
	res := exec1(t, e, `SELECT n_name, COUNT(*) FROM nation, V_CUSTOMER
		WHERE n_nationkey = c_nationkey AND n_name = 'BRAZIL' GROUP BY n_name`)
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "BRAZIL" {
		t.Fatalf("rows = %v", res.Rows)
	}
	m := e.Metrics.Snapshot()
	if m.SemiJoinsChosen == 0 {
		t.Fatalf("semijoin strategy not chosen; metrics %+v\nplan:\n%s", m, res.Plan)
	}
	// Only nationkey==2 customers cross the wire.
	if m.RemoteRowsFetched >= 20 {
		t.Fatalf("semijoin should reduce transfer, fetched %d", m.RemoteRowsFetched)
	}
}

func TestRemoteCacheHintEndToEnd(t *testing.T) {
	e, srv := newFederatedSetup(t)
	q := `SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'HOUSEHOLD' WITH HINT (USE_REMOTE_CACHE)`
	res1 := exec1(t, e, q)
	if strings.Contains(res1.Plan, "cache hit") {
		t.Fatal("first run cannot hit the cache")
	}
	jobsAfterCold := srv.MR.JobsRun.Load()
	res2 := exec1(t, e, q)
	if !strings.Contains(res2.Plan, "remote cache hit") {
		t.Fatalf("second run must hit cache:\n%s", res2.Plan)
	}
	if srv.MR.JobsRun.Load() != jobsAfterCold {
		t.Fatal("cache hit must not run MR jobs")
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Fatal("cache changed the result")
	}
	// Without the hint, no caching even though enable_remote_cache is on.
	res3 := exec1(t, e, `SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'AUTOMOBILE'`)
	_ = res3
	m := e.Metrics.Snapshot()
	if m.RemoteCacheHits != 1 {
		t.Fatalf("cache hits = %d", m.RemoteCacheHits)
	}
	// Disabled globally → hint is ignored (enable_remote_cache=false).
	e.SetRemoteCache(false)
	res4 := exec1(t, e, q)
	if strings.Contains(res4.Plan, "cache hit") {
		t.Fatal("disabled cache must not serve hits")
	}
}

func TestCacheOnlyWithPredicates(t *testing.T) {
	e, srv := newFederatedSetup(t)
	// No WHERE clause → "we only materialize queries with predicates".
	exec1(t, e, `SELECT c_name FROM V_CUSTOMER WITH HINT (USE_REMOTE_CACHE)`)
	if srv.MS.CacheSize() != 0 {
		t.Fatal("predicate-less query must not be materialized")
	}
	exec1(t, e, `SELECT c_name FROM V_CUSTOMER WHERE c_custkey > 0 WITH HINT (USE_REMOTE_CACHE)`)
	if srv.MS.CacheSize() != 1 {
		t.Fatal("predicated query must be materialized")
	}
}

func TestVirtualFunctionEndToEnd(t *testing.T) {
	e, srv := newFederatedSetup(t)
	_ = srv.MS.Cluster().WriteFile("/plant100/readings.log",
		[]byte("EQ1 95.5\nEQ2 30.0\nEQ1 99.1\nEQ3 91.0\n"))
	hive.RegisterDriver("com.customer.hadoop.SensorMRDriver", func(server *hive.Server, config map[string]string) (*mapreduce.Job, error) {
		return &mapreduce.Job{
			Name:   "sensor-extract",
			Inputs: []string{"/plant100/readings.log"},
			Output: "/tmp/vf-out",
			Map: func(_, line string, emit func(k, v string)) error {
				f := strings.Fields(line)
				if len(f) == 2 {
					emit("", f[0]+"\t"+f[1])
				}
				return nil
			},
		}, nil
	})
	exec1(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE MRSERVER ADAPTER hadoop
		CONFIGURATION 'webhdfs=http://%s:50070;webhcatalog=http://%s:50111'
		WITH CREDENTIAL TYPE 'password' USING 'user=hadoop;password=hadooppw'`, srv.Host, srv.Host))
	exec1(t, e, `CREATE VIRTUAL FUNCTION PLANT100_SENSOR_RECORDS()
		RETURNS TABLE (EQUIP_ID VARCHAR(30), PRESSURE DOUBLE)
		CONFIGURATION 'hana.mapred.driver.class = com.customer.hadoop.SensorMRDriver'
		AT MRSERVER`)
	// §4.3's example query joining a local table with the function.
	exec1(t, e, `CREATE TABLE equipments (equip_id VARCHAR(30), last_service DATE)`)
	exec1(t, e, `INSERT INTO equipments VALUES ('EQ1', DATE '2014-05-01'), ('EQ3', DATE '2013-01-01')`)
	res := exec1(t, e, `SELECT A.EQUIP_ID, B.PRESSURE FROM EQUIPMENTS A
		JOIN PLANT100_SENSOR_RECORDS() B ON A.EQUIP_ID = B.EQUIP_ID
		WHERE B.PRESSURE > 90 ORDER BY B.PRESSURE DESC`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].Float() != 99.1 {
		t.Fatalf("order = %v", res.Rows)
	}
}

func TestDropRemoteSourceCascades(t *testing.T) {
	e, _ := newFederatedSetup(t)
	exec1(t, e, `DROP REMOTE SOURCE HIVE1`)
	if _, err := e.ExecuteContext(context.Background(), `SELECT * FROM V_CUSTOMER`); err == nil {
		t.Fatal("virtual table must be gone with its source")
	}
}

// A subquery in the select list runs on neither side: the statement must
// fail with the engine's own error before anything reaches the source, not
// ship whole and come back refused by Hive.
func TestSelectListSubqueryIsRefusedBeforeShipping(t *testing.T) {
	e, srv := newFederatedSetup(t)
	_, err := e.ExecuteContext(context.Background(), `SELECT c_name, (SELECT MAX(o_total) FROM V_ORDERS) FROM V_CUSTOMER`)
	if err == nil || err.Error() != "a subquery in the select list, HAVING or ORDER BY is not supported" {
		t.Fatalf("err = %v, want the engine's own refusal", err)
	}
	if srv.QueriesRun != 0 {
		t.Fatalf("the source received %d queries, want none", srv.QueriesRun)
	}
}

func TestCapabilityGatedShipping(t *testing.T) {
	e, _ := newFederatedSetup(t)
	// Register a crippled adapter: no joins. Joins between its virtual
	// tables must NOT merge into one remote query.
	e.Registry().Register("limited", func(cfg, cred map[string]string) (fed.Adapter, error) {
		a, err := hive.NewAdapterFactory()(map[string]string{"DSN": cfg["DSN"]}, nil)
		if err != nil {
			return nil, err
		}
		return &limitedAdapter{Adapter: a.(*hive.Adapter)}, nil
	})
	exec1(t, e, `CREATE REMOTE SOURCE LIM ADAPTER limited CONFIGURATION 'DSN=hive-TestCapabilityGatedShipping'`)
	exec1(t, e, `CREATE VIRTUAL TABLE L_CUST AT "LIM"."db"."customer"`)
	exec1(t, e, `CREATE VIRTUAL TABLE L_ORD AT "LIM"."db"."orders"`)
	res := exec1(t, e, `SELECT COUNT(*) FROM L_CUST JOIN L_ORD ON c_custkey = o_custkey`)
	if res.Rows[0][0].Int() != 60 {
		t.Fatalf("count = %v", res.Rows)
	}
	// Two separate remote scans, joined locally.
	m := e.Metrics.Snapshot()
	if m.RemoteQueries < 2 {
		t.Fatalf("expected per-table shipping, metrics %+v\nplan:\n%s", m, res.Plan)
	}
	if strings.Contains(res.Plan, "Remote Query [LIM]") {
		t.Fatalf("whole-query ship must be blocked by capabilities:\n%s", res.Plan)
	}
}

// limitedAdapter strips join capabilities from the Hive adapter.
type limitedAdapter struct{ *hive.Adapter }

func (l *limitedAdapter) Capabilities() fed.Capabilities {
	c := l.Adapter.Capabilities()
	c.Joins = false
	c.JoinsOuter = false
	c.GroupBy = false
	c.Subqueries = false
	return c
}
