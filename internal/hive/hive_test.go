package hive

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"hana/internal/engine"
	"hana/internal/exec"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(4096), hdfs.WithReplication(2))
	ms := NewMetastore(cluster, "/warehouse")
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 8, ReduceSlots: 4, DefaultReducers: 2})
	return NewServer("hive1", ms, mr)
}

func loadCustomersOrders(t *testing.T, s *Server) {
	t.Helper()
	custSchema := value.NewSchema(
		value.Column{Name: "c_custkey", Kind: value.KindInt},
		value.Column{Name: "c_name", Kind: value.KindVarchar},
		value.Column{Name: "c_mktsegment", Kind: value.KindVarchar},
	)
	ordSchema := value.NewSchema(
		value.Column{Name: "o_orderkey", Kind: value.KindInt},
		value.Column{Name: "o_custkey", Kind: value.KindInt},
		value.Column{Name: "o_total", Kind: value.KindDouble},
		value.Column{Name: "o_comment", Kind: value.KindVarchar},
	)
	if _, err := s.MS.CreateTable("customer", custSchema, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MS.CreateTable("orders", ordSchema, false); err != nil {
		t.Fatal(err)
	}
	var custs, ords []value.Row
	segs := []string{"HOUSEHOLD", "AUTOMOBILE", "BUILDING"}
	for i := 1; i <= 30; i++ {
		custs = append(custs, value.Row{
			value.NewInt(int64(i)),
			value.NewString(fmt.Sprintf("Customer#%03d", i)),
			value.NewString(segs[i%3]),
		})
	}
	for i := 1; i <= 100; i++ {
		ords = append(ords, value.Row{
			value.NewInt(int64(i)),
			value.NewInt(int64(i%30 + 1)),
			value.NewDouble(float64(i) * 10),
			value.NewString(fmt.Sprintf("order comment %d", i)),
		})
	}
	if err := s.MS.LoadRows("customer", custs, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.MS.LoadRows("orders", ords, 3); err != nil {
		t.Fatal(err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	schema := value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindVarchar},
		value.Column{Name: "c", Kind: value.KindDouble},
		value.Column{Name: "d", Kind: value.KindDate},
	)
	d, _ := value.ParseDate("1995-03-15")
	rows := []value.Row{
		{value.NewInt(1), value.NewString("plain"), value.NewDouble(1.5), d},
		{value.NewInt(-2), value.NewString("tab\tand\nnewline\\"), value.Null, value.Null},
		{value.Null, value.NewString(`\N literal-ish`), value.NewDouble(0), d},
	}
	for _, r := range rows {
		line := EncodeRow(r)
		got, err := DecodeRow(line, schema)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		for i := range r {
			if r[i].IsNull() != got[i].IsNull() {
				t.Fatalf("null mismatch at %d: %v vs %v", i, r[i], got[i])
			}
			if !r[i].IsNull() && value.Compare(r[i], got[i]) != 0 {
				t.Fatalf("value mismatch at %d: %v vs %v", i, r[i], got[i])
			}
		}
	}
	// The decoder checks the column count and each value's kind against
	// the schema; an INTEGER widens into a DOUBLE column.
	for _, bad := range []value.Row{rows[0][:3], {value.NewString("1"), value.Null, value.Null, value.Null}} {
		if got, err := DecodeRow(EncodeRow(bad), schema); err == nil {
			t.Fatalf("%v decoded under %v as %v", bad, schema.Cols, got)
		}
	}
	got, err := DecodeRow(EncodeRow(value.Row{value.Null, value.Null, value.NewInt(3), value.Null}), schema)
	if err != nil || got[2] != value.NewDouble(3) {
		t.Fatalf("an INTEGER in a DOUBLE column = %v, %v; want 3 as a DOUBLE", got, err)
	}
}

func TestMetastoreAndStats(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	ti, ok := s.MS.Table("ORDERS")
	if !ok || ti.RowCount != 100 || ti.Files != 3 {
		t.Fatalf("stats = %+v", ti)
	}
	rows, err := s.MS.ReadTable("customer")
	if err != nil || rows.Len() != 30 {
		t.Fatalf("read table: %v %d", err, rows.Len())
	}
	if err := s.MS.DropTable("customer"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.MS.Table("customer"); ok {
		t.Fatal("dropped")
	}
}

func TestSimpleScanQuery(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 10 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if s.MR.JobsRun.Load() == 0 {
		t.Fatal("expected a map-reduce scan job")
	}
}

func TestJoinQuery(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT c_name, o_total FROM customer JOIN orders ON c_custkey = o_custkey
		WHERE c_mktsegment = 'HOUSEHOLD' AND o_total > 500`)
	if err != nil {
		t.Fatal(err)
	}
	// customers in HOUSEHOLD: keys where i%3==0 → custkey 1..30 with i%3==0;
	// orders with total > 500: 51..100 (50 orders), distributed over custkeys.
	if rows.Len() == 0 {
		t.Fatal("join returned nothing")
	}
	for _, r := range rows.Data {
		if r[1].Float() <= 500 {
			t.Fatalf("filter leak: %v", r)
		}
	}
}

func TestAggregationQuery(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT c_mktsegment, COUNT(*), SUM(o_total), AVG(o_total), MIN(o_total), MAX(o_total)
		FROM customer JOIN orders ON c_custkey = o_custkey
		GROUP BY c_mktsegment`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("groups = %d", rows.Len())
	}
	var totalCount, totalSum float64
	for _, r := range rows.Data {
		totalCount += float64(r[1].Int())
		totalSum += r[2].Float()
		if r[4].Float() > r[5].Float() {
			t.Fatalf("min > max: %v", r)
		}
	}
	if totalCount != 100 {
		t.Fatalf("total count = %f", totalCount)
	}
	if totalSum != 50500 { // sum of 10..1000 step 10
		t.Fatalf("total sum = %f", totalSum)
	}
}

func TestGlobalAggregate(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT COUNT(*), SUM(o_total) FROM orders WHERE o_total > 900`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Data[0][0].Int() != 10 {
		t.Fatalf("global agg = %v", rows.Data)
	}
}

func TestHavingAndOrderLimit(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT o_custkey, SUM(o_total) total FROM orders
		GROUP BY o_custkey HAVING SUM(o_total) > 1500 ORDER BY total DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if rows.Data[0][1].Float() < rows.Data[1][1].Float() {
		t.Fatal("order")
	}
}

func TestLeftOuterJoinWithOnFilter(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	// Every order total is <= 1000, so the ON filter drops all matches for
	// most customers → COUNT(o_orderkey) = 0 for them (Q13 shape).
	rows, err := s.Exec.Query(`SELECT c_custkey, COUNT(o_orderkey) FROM customer
		LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_total > 990
		GROUP BY c_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 30 {
		t.Fatalf("left join must keep all customers: %d", rows.Len())
	}
	var withOrders int
	for _, r := range rows.Data {
		if r[1].Int() > 0 {
			withOrders++
		}
	}
	if withOrders != 1 { // only order 100 (total 1000) passes
		t.Fatalf("customers with orders = %d", withOrders)
	}
}

func TestInSubquery(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT c_name FROM customer WHERE c_custkey IN
		(SELECT o_custkey FROM orders WHERE o_total > 970)`)
	if err != nil {
		t.Fatal(err)
	}
	// orders 98,99,100 → custkeys 9,10,11.
	if rows.Len() != 3 {
		t.Fatalf("IN subquery rows = %d", rows.Len())
	}
}

// NOT IN is null-aware, as in the engine: a NULL inner key leaves no row
// true, and a NULL outer key survives only an empty inner set.
func TestNotInSubqueryIsNullAware(t *testing.T) {
	s := newTestServer(t)
	for name, vals := range map[string][]value.Value{
		"ta": {value.NewInt(1), value.NewInt(2), value.Null},
		"tb": {value.NewInt(1), value.Null},
	} {
		col := strings.TrimPrefix(name, "t")
		if _, err := s.MS.CreateTable(name, value.NewSchema(value.Column{Name: col, Kind: value.KindInt}), false); err != nil {
			t.Fatal(err)
		}
		var rows []value.Row
		for _, v := range vals {
			rows = append(rows, value.Row{v})
		}
		if err := s.MS.LoadRows(name, rows, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ sub, want string }{
		{`SELECT b FROM tb`, "[]"},
		{`SELECT b FROM tb WHERE b IS NOT NULL`, "[2]"},
		{`SELECT b FROM tb WHERE b > 100`, "[1 2 NULL]"},
	} {
		rows, err := s.Exec.Query(`SELECT a FROM ta WHERE a NOT IN (` + tc.sub + `)`)
		if err != nil {
			t.Fatal(err)
		}
		got := []string{}
		for _, r := range rows.Data {
			got = append(got, r[0].String())
		}
		sort.Strings(got)
		if fmt.Sprint(got) != tc.want {
			t.Errorf("NOT IN (%s) = %v, want %s", tc.sub, got, tc.want)
		}
	}
}

func TestCorrelatedExists(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT COUNT(*) FROM customer WHERE EXISTS
		(SELECT * FROM orders WHERE o_custkey = c_custkey AND o_total > 970)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 3 {
		t.Fatalf("EXISTS count = %v", rows.Data)
	}
	// NOT EXISTS complements.
	rows, err = s.Exec.Query(`SELECT COUNT(*) FROM customer WHERE NOT EXISTS
		(SELECT * FROM orders WHERE o_custkey = c_custkey AND o_total > 970)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 27 {
		t.Fatalf("NOT EXISTS count = %v", rows.Data)
	}
	// The inner FROM may be a derived table: its schema comes from the same
	// block analysis that will run it.
	rows, err = s.Exec.Query(`SELECT COUNT(*) FROM customer WHERE EXISTS
		(SELECT * FROM (SELECT o_custkey AS ck, o_total FROM orders) big WHERE big.ck = c_custkey AND big.o_total > 970)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 3 {
		t.Fatalf("EXISTS over a derived table = %v", rows.Data)
	}
}

// The front half Hive shares with the engine: a join with no equality key
// is a single-reducer cross product under its residual, an uncorrelated
// EXISTS is one value for every row, and a scalar subquery in WHERE is run
// first and inlined.
func TestSharedFrontEndShapes(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		// Orders over 900 belong to customers 2..11: Σ (30 − k) = 235.
		{`SELECT COUNT(*) FROM customer, orders WHERE c_custkey > o_custkey AND o_total > 900`, 235},
		// Only order 100 passes the right-side ON filter; customers 1 and 2
		// match it, and all 30 are kept.
		{`SELECT COUNT(*), COUNT(o_orderkey) FROM customer LEFT JOIN orders ON o_total > 990 AND c_custkey < 3`, 30},
		{`SELECT COUNT(*) FROM customer WHERE EXISTS (SELECT o_orderkey FROM orders WHERE o_total > 990)`, 30},
		{`SELECT COUNT(*) FROM customer WHERE EXISTS (SELECT o_orderkey FROM orders WHERE o_total > 1000)`, 0},
		{`SELECT COUNT(*) FROM customer WHERE NOT EXISTS (SELECT o_orderkey FROM orders WHERE o_total < 0)`, 30},
		// The average total is 505: orders 51..100.
		{`SELECT COUNT(*) FROM orders WHERE o_total > (SELECT AVG(o_total) FROM orders)`, 50},
	} {
		rows, err := s.Exec.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := rows.Data[0][0].Int(); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.sql, got, tc.want)
		}
	}
	rows, err := s.Exec.Query(`SELECT COUNT(o_orderkey) FROM customer LEFT JOIN orders ON o_total > 990 AND c_custkey < 3`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Data[0][0].Int(); got != 2 {
		t.Errorf("keyless left join matched %d rows, want 2", got)
	}
}

func TestPartialCodec(t *testing.T) {
	var aggs []exec.AggSpec
	var states []*exec.AggState
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "VAR", "STDDEV"} {
		st := exec.NewAggState(fn, false)
		for _, v := range []value.Value{value.NewDouble(1e16), value.NewDouble(1.5), value.NewInt(4), value.Null, value.NewDouble(-1e16)} {
			st.Add(v)
		}
		aggs = append(aggs, exec.AggSpec{Func: fn})
		states = append(states, st)
	}
	enc := string(appendStates(nil, states))
	got := newStates(aggs)
	if err := foldStates(got, enc); err != nil {
		t.Fatal(err)
	}
	for i, a := range aggs {
		want, _ := states[i].Result(a.Func)
		if have, _ := got[i].Result(a.Func); have != want {
			t.Errorf("%s after the shuffle = %v, want %v", a.Func, have, want)
		}
	}
	// A value with fewer states than aggregates, or bytes after the last,
	// is a decode error.
	if err := foldStates(newStates(aggs), enc[:len(enc)-1]); err == nil {
		t.Fatal("a truncated partial must be a decode error")
	}
	if err := foldStates(newStates(aggs[:6]), enc); err == nil {
		t.Fatal("a partial with a state too many must be a decode error")
	}
	// A sum has at most one partial per bit position of a float64.
	long := binary.AppendUvarint(binary.AppendVarint(nil, 1), exec.MaxPartials+1)
	long = append(long, make([]byte, 8*(exec.MaxPartials+1)+64)...)
	if err := foldStates(newStates(aggs[:1]), string(long)); err == nil || !strings.Contains(err.Error(), "partials") {
		t.Fatalf("a sum of %d partials: %v", exec.MaxPartials+1, err)
	}
}

// Map tasks ship exact partial sums, so a SUM whose terms cancel (1e16, 1,
// -1e16, spread over several part files and so several map tasks and
// combiners) comes out as the engine computes it, not as the order the
// partials met in left it.
func TestMapReduceFloatSumIsExact(t *testing.T) {
	s := newTestServer(t)
	schema := value.NewSchema(
		value.Column{Name: "g", Kind: value.KindInt},
		value.Column{Name: "x", Kind: value.KindDouble},
	)
	if _, err := s.MS.CreateTable("cancel", schema, false); err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i % 2)), value.NewDouble([]float64{1e16, 1, -1e16}[i%3])})
	}
	if err := s.MS.LoadRows("cancel", rows, 6); err != nil {
		t.Fatal(err)
	}
	if files := s.MS.Cluster().List("/warehouse/cancel"); len(files) < 6 {
		t.Fatalf("rows landed in %d files, want 6", len(files))
	}

	e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir()})
	ctx := context.Background()
	if _, err := e.ExecuteContext(ctx, "CREATE TABLE cancel (g INTEGER, x DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("cancel", rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT g, SUM(x), AVG(x) FROM cancel GROUP BY g ORDER BY g",
		"SELECT SUM(x), AVG(x) FROM cancel",
	} {
		got, err := s.Exec.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.ExecuteContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: map-reduce gives %v, the engine %v", q, got.Data, want.Rows)
		}
	}
	if got, err := s.Exec.Query("SELECT SUM(x), AVG(x) FROM cancel"); err != nil || got.Data[0][0].Float() != 100 || got.Data[0][1].Float() != 1.0/3 {
		t.Fatalf("SUM, AVG over 100 × (1e16, 1, -1e16) = %v (%v), want 100, 1/3", got, err)
	}
}

func TestDistinctAggFallsBackToDriver(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT COUNT(DISTINCT c_mktsegment) FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 3 {
		t.Fatalf("count distinct = %v", rows.Data)
	}
}

func TestCaseExpressionAggregate(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`SELECT SUM(CASE WHEN o_total > 500 THEN 1 ELSE 0 END) FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != 50 {
		t.Fatalf("case sum = %v", rows.Data)
	}
}

func TestAdapterQueryAndCaps(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	factory := NewAdapterFactory()
	a, err := factory(map[string]string{"DSN": "hive1"}, map[string]string{"user": "dfuser", "password": "dfpass"})
	if err != nil {
		t.Fatal(err)
	}
	caps := a.Capabilities()
	if !caps.Joins || !caps.JoinsOuter || !caps.GroupBy || caps.Insert || caps.Transactions {
		t.Fatalf("caps = %+v", caps)
	}
	schema, err := a.TableSchema([]string{"dflo", "dflo", "customer"})
	if err != nil || schema.Len() != 3 {
		t.Fatalf("schema: %v %v", schema, err)
	}
	st, ok := a.TableStats([]string{"orders"})
	if !ok || st.RowCount != 100 || st.Files != 3 {
		t.Fatalf("stats = %+v", st)
	}
	res, err := a.Query(`SELECT COUNT(*) FROM orders`, fed.QueryOptions{})
	if err != nil || res.Rows.Data[0][0].Int() != 100 {
		t.Fatalf("query: %v %v", res, err)
	}
	if res.FromCache {
		t.Fatal("uncached query must not report cache")
	}
}

func TestRemoteMaterializationCache(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	a, err := NewAdapterFactory()(map[string]string{"DSN": "hive1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sql := `SELECT c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'`
	opts := fed.QueryOptions{UseCache: true, Validity: time.Hour}

	jobsBefore := s.MR.JobsRun.Load()
	res1, err := a.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res1.FromCache || res1.MaterializeTime <= 0 {
		t.Fatalf("first run must materialize: %+v", res1)
	}
	jobsCold := s.MR.JobsRun.Load() - jobsBefore
	if jobsCold == 0 {
		t.Fatal("cold run must execute MR jobs")
	}

	res2, err := a.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromCache {
		t.Fatal("second run must hit the cache")
	}
	if s.MR.JobsRun.Load() != jobsBefore+jobsCold {
		t.Fatal("cache hit must not run MR jobs")
	}
	if res2.Rows.Len() != res1.Rows.Len() {
		t.Fatal("cache returned different rows")
	}

	// Different statements key separately.
	res3, err := a.Query(`SELECT c_name FROM customer WHERE c_mktsegment = 'BUILDING'`, opts)
	if err != nil || res3.FromCache {
		t.Fatal("different statement must not hit the cache")
	}
	if s.MS.CacheSize() != 2 {
		t.Fatalf("cache entries = %d", s.MS.CacheSize())
	}

	// Expiry: a zero-age validity expires everything.
	time.Sleep(2 * time.Millisecond)
	res4, err := a.Query(sql, fed.QueryOptions{UseCache: true, Validity: time.Millisecond})
	if err != nil || res4.FromCache {
		t.Fatal("expired entry must be recomputed")
	}

	// Invalidate-all drops temp tables.
	s.MS.CacheInvalidateAll()
	if s.MS.CacheSize() != 0 {
		t.Fatal("invalidate all")
	}
}

func TestHadoopVirtualFunctionDriver(t *testing.T) {
	s := newTestServer(t)
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	// Raw sensor lines in HDFS, outside any Hive table.
	_ = s.MS.Cluster().WriteFile("/plant100/sensors.log",
		[]byte("EQ1 95.5\nEQ2 30.0\nEQ1 99.1\nEQ3 91.0\n"))
	RegisterDriver("com.customer.hadoop.SensorMRDriver", func(server *Server, config map[string]string) (*mapreduce.Job, error) {
		return &mapreduce.Job{
			Name:   "sensor-extract",
			Inputs: []string{"/plant100/sensors.log"},
			Output: "/tmp/sensor-out",
			Map: func(_, line string, emit func(k, v string)) error {
				f := strings.Fields(line)
				if len(f) == 2 {
					emit("", f[0]+"\t"+f[1])
				}
				return nil
			},
		}, nil
	})
	a, err := NewHadoopAdapterFactory()(map[string]string{
		"webhdfs":     "http://hive1:50070",
		"webhcatalog": "http://hive1:50111",
	}, map[string]string{"user": "hadoop"})
	if err != nil {
		t.Fatal(err)
	}
	fa := a.(fed.FunctionAdapter)
	schema := value.NewSchema(
		value.Column{Name: "EQUIP_ID", Kind: value.KindVarchar},
		value.Column{Name: "PRESSURE", Kind: value.KindDouble},
	)
	rows, err := fa.CallFunction(map[string]string{
		"hana.mapred.driver.class": "com.customer.hadoop.SensorMRDriver",
	}, schema)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 {
		t.Fatalf("function rows = %d", rows.Len())
	}
	if _, err := fa.CallFunction(map[string]string{"hana.mapred.driver.class": "nope"}, schema); err == nil {
		t.Fatal("unknown driver must error")
	}
}

func TestExecutorErrors(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.Exec.Query(`SELECT * FROM missing`); err == nil {
		t.Fatal("missing table")
	}
	if _, err := s.Exec.Query(`INSERT INTO x VALUES (1)`); err == nil {
		t.Fatal("non-select must error")
	}
	if _, err := s.Exec.Query(`SELECT 1`); err == nil {
		t.Fatal("select without from unsupported in hive")
	}
}

func TestCacheInvalidationOnLoad(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	s.MS.SetInvalidateCacheOnLoad(true)
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	a, _ := NewAdapterFactory()(map[string]string{"DSN": s.Host}, nil)
	opts := fed.QueryOptions{UseCache: true, Validity: time.Hour}
	sql := `SELECT c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'`
	if _, err := a.Query(sql, opts); err != nil {
		t.Fatal(err)
	}
	if s.MS.CacheSize() != 1 {
		t.Fatal("materialization missing")
	}
	// Loading new base data invalidates every materialization.
	if err := s.MS.LoadRows("customer", []value.Row{{
		value.NewInt(999), value.NewString("Customer#999"), value.NewString("HOUSEHOLD"),
	}}, 1); err != nil {
		t.Fatal(err)
	}
	if s.MS.CacheSize() != 0 {
		t.Fatal("cache must be invalidated on load")
	}
	// The recomputed result includes the new row.
	res, err := a.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("must recompute after invalidation")
	}
	if res.Rows.Len() != 11 {
		t.Fatalf("rows = %d, want 11 (10 + new)", res.Rows.Len())
	}
}

func TestDerivedTableAggregation(t *testing.T) {
	// Q13 shape entirely inside Hive: aggregate over a derived table that
	// itself aggregates an outer join.
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	rows, err := s.Exec.Query(`
		SELECT c_count, COUNT(*) custdist FROM (
			SELECT c_custkey, COUNT(o_orderkey) c_count
			FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey
			GROUP BY c_custkey
		) c_orders
		GROUP BY c_count ORDER BY custdist DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// 100 orders over custkeys (i%30)+1: keys 1..10 get 4 orders, 11..30
	// get 3 → two distinct c_count groups.
	if rows.Len() != 2 {
		t.Fatalf("groups = %v", rows.Data)
	}
	var total int64
	for _, r := range rows.Data {
		total += r[1].Int()
	}
	if total != 30 {
		t.Fatalf("customers accounted = %d", total)
	}
}

func TestDateFiltersThroughMapReduce(t *testing.T) {
	s := newTestServer(t)
	schema := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt},
		value.Column{Name: "d", Kind: value.KindDate},
	)
	_, _ = s.MS.CreateTable("events", schema, false)
	base, _ := value.ParseDate("2014-01-01")
	var rows []value.Row
	for i := 0; i < 300; i++ {
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewDate(base.I + int64(i))})
	}
	_ = s.MS.LoadRows("events", rows, 2)
	got, err := s.Exec.Query(`SELECT COUNT(*) FROM events
		WHERE d >= DATE '2014-02-01' AND d < DATE '2014-03-01'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0][0].Int() != 28 {
		t.Fatalf("feb count = %v", got.Data[0][0])
	}
}

// Hive's shuffle keys and partials give the engine's answer where its old
// text forms did not: −0.0 and 0.0 are one key, and a VARCHAR holding the
// text forms' separators (\x01 between key values, \x02/\x03 inside a
// partial) stays one value.
func TestKeysAndPartialsAgreeWithEngine(t *testing.T) {
	dbl := func(f float64) value.Row { return value.Row{value.NewDouble(f)} }
	strs := func(a, b string) value.Row { return value.Row{value.NewString(a), value.NewString(b)} }
	col := func(name string, k value.Kind) value.Column { return value.Column{Name: name, Kind: k} }
	tables := []struct {
		name string
		cols []value.Column
		rows []value.Row
	}{
		{"dz", []value.Column{col("k", value.KindDouble)}, []value.Row{dbl(math.Copysign(0, -1)), dbl(0)}},
		{"dz2", []value.Column{col("k2", value.KindDouble)}, []value.Row{dbl(0)}},
		{"sa", []value.Column{col("s", value.KindVarchar), col("s2", value.KindVarchar)}, []value.Row{strs("x\x01y", "z")}},
		{"sb", []value.Column{col("s", value.KindVarchar), col("s2", value.KindVarchar)}, []value.Row{strs("x\x01y", "z"), strs("x", "y\x01z")}},
		{"sep", []value.Column{col("g", value.KindInt), col("s", value.KindVarchar)}, []value.Row{
			{value.NewInt(1), value.NewString("r\x02s")}, {value.NewInt(1), value.NewString("a\x03b")}}},
	}
	s := newTestServer(t)
	e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir()})
	ctx := context.Background()
	for _, tb := range tables {
		if _, err := s.MS.CreateTable(tb.name, value.NewSchema(tb.cols...), false); err != nil {
			t.Fatal(err)
		}
		if err := s.MS.LoadRows(tb.name, tb.rows, 2); err != nil {
			t.Fatal(err)
		}
		var defs []string
		for _, c := range tb.cols {
			defs = append(defs, c.Name+" "+c.Kind.String())
		}
		if _, err := e.ExecuteContext(ctx, "CREATE TABLE "+tb.name+" ("+strings.Join(defs, ", ")+")"); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad(tb.name, tb.rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT k, COUNT(*) FROM dz GROUP BY k",
		"SELECT a.k, b.k2 FROM dz a JOIN dz2 b ON a.k = b.k2",
		"SELECT a.s, b.s2 FROM sa a JOIN sb b ON a.s = b.s AND a.s2 = b.s2",
		"SELECT s, s2, COUNT(*) FROM sb GROUP BY s, s2 ORDER BY s",
		"SELECT g, MAX(s), COUNT(*) FROM sep GROUP BY g",
	} {
		got, err := s.Exec.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		want, err := e.ExecuteContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		same := len(got.Data) == len(want.Rows)
		for i := 0; same && i < len(got.Data); i++ {
			for j, v := range got.Data[i] {
				same = same && value.Compare(v, want.Rows[i][j]) == 0
			}
		}
		if !same {
			t.Errorf("%s: Hive gives %q, the engine %q", q, got.Data, want.Rows)
		}
	}
}

// An expression that fails on a row fails the query, at Hive as in the
// engine, wherever Hive evaluates it: a scan filter, an aggregate argument,
// a group key, a join side's filter or key, the join residual. Hive used to
// drop the row instead.
func TestExpressionErrorsFailTheQuery(t *testing.T) {
	s := newTestServer(t)
	e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir()})
	ctx := context.Background()
	rows := []value.Row{
		{value.NewInt(1), value.NewInt(2)}, {value.NewInt(1), value.NewInt(0)}, {value.NewInt(2), value.NewInt(5)},
	}
	for _, name := range []string{"t", "u"} {
		schema := value.NewSchema(value.Column{Name: "g", Kind: value.KindInt}, value.Column{Name: "x", Kind: value.KindInt})
		if _, err := s.MS.CreateTable(name, schema, false); err != nil {
			t.Fatal(err)
		}
		if err := s.MS.LoadRows(name, rows, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ExecuteContext(ctx, "CREATE TABLE "+name+" (g BIGINT, x BIGINT)"); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM t WHERE 10 / x > 1",
		"SELECT g, SUM(10 / x) FROM t GROUP BY g",
		"SELECT g, COUNT(*) FROM t GROUP BY g, 10 / x",
		"SELECT COUNT(*) FROM t a JOIN u b ON a.g = b.g AND 10 / a.x > 0",
		"SELECT COUNT(*) FROM t a JOIN u b ON a.g = b.g WHERE 10 / a.x > b.x / 10",
		"SELECT COUNT(*) FROM t a JOIN u b ON 10 / a.x = b.g",
	} {
		if got, err := s.Exec.Query(q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("Hive: %s = %v, %v; want a division by zero", q, got, err)
		}
		if _, err := e.ExecuteContext(ctx, q); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("engine: %s: %v; want a division by zero", q, err)
		}
	}
}

// A record Hive cannot read fails the query instead of dropping out of its
// answer: a part file cut inside its last record, and a well-framed record
// that is not a row of the table. The second fails inside a map task, with
// an error that is not transient, so the task is not retried.
func TestUnreadableRecordFailsTheQuery(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	queries := []string{
		`SELECT COUNT(*) FROM orders`,
		`SELECT o_orderkey FROM orders WHERE o_total > 0`,
		`SELECT c_name, o_total FROM customer JOIN orders ON c_custkey = o_custkey`,
	}
	c := s.MS.Cluster()
	part := c.List("/warehouse/orders")[0].Path
	data, err := c.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(part, data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if rows, err := s.Exec.Query(q); err == nil || !strings.Contains(err.Error(), "truncated record") {
			t.Errorf("%s over a truncated part file = %v rows, %v; want an error", q, rows, err)
		}
	}
	if err := c.WriteFile(part, data); err != nil {
		t.Fatal(err)
	}
	narrow := appendRows([]byte(mapreduce.RecordHeader), []value.Row{{value.NewInt(1)}})
	if err := c.WriteFile("/warehouse/orders/part-99999", narrow); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		_, err := s.Exec.Query(q)
		if err == nil || !strings.Contains(err.Error(), "row has 1 fields, schema 4") {
			t.Errorf("%s over a one-column record = %v; want the decode error", q, err)
		}
		if faults.IsTransient(err) {
			t.Errorf("%s: a decode error must not be transient: %v", q, err)
		}
	}
	if n := s.MR.Counters.TaskRetries.Load(); n != 0 {
		t.Fatalf("a decode error was retried %d times", n)
	}
}

// tempTables lists the metastore's remote-materialization tables, sorted.
func tempTables(s *Server) []string {
	var out []string
	for _, n := range s.MS.TableNames() {
		if strings.HasPrefix(n, "tmp_mat_") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// A cached temp table whose file is damaged is recomputed and replaced: the
// hinted query still answers right, from a fresh materialization, and the
// damaged table leaves the metastore and HDFS instead of leaking. A
// materialization whose load fails leaves no table behind either.
func TestDamagedCacheTableIsReplacedNotLeaked(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	a, err := NewAdapterFactory()(map[string]string{"DSN": "hive1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sql := `SELECT c_name FROM customer WHERE c_mktsegment = 'HOUSEHOLD'`
	opts := fed.QueryOptions{UseCache: true, Validity: time.Hour}
	first, err := a.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	names := func(rows *value.Rows) []string {
		var out []string
		for _, r := range rows.Data {
			out = append(out, r[0].String())
		}
		sort.Strings(out)
		return out
	}
	want := names(first.Rows)
	temps := tempTables(s)
	if len(temps) != 1 {
		t.Fatalf("temp tables after one materialization = %v", temps)
	}
	ti, _ := s.MS.Table(temps[0])
	oldDir := ti.Dir
	c := s.MS.Cluster()
	part := c.List(oldDir)[0].Path
	data, err := c.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile(part, data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}

	res, err := a.Query(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromCache {
		t.Fatal("a damaged temp table must not be served")
	}
	if got := names(res.Rows); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("recomputed rows = %v, want %v", got, want)
	}
	if temps := tempTables(s); len(temps) != 1 || strings.EqualFold(temps[0], ti.Name) {
		t.Fatalf("temp tables after the recompute = %v, want one that is not %s", temps, ti.Name)
	}
	if c.Exists(oldDir) {
		t.Fatalf("the damaged table's directory %s is still in HDFS", oldDir)
	}
	if hit, err := a.Query(sql, opts); err != nil || !hit.FromCache || strings.Join(names(hit.Rows), ",") != strings.Join(want, ",") {
		t.Fatalf("the replacement must serve the next query: %v, %v", hit, err)
	}

	// A load that fails drops the table it created.
	inj := faults.New(1)
	c.SetInjector(inj)
	defer c.SetInjector(nil)
	inj.FailFatal("hdfs.write", 1)
	if _, err := a.Query(`SELECT c_name FROM customer`, opts); err == nil {
		t.Fatal("a materialization whose load fails must fail")
	}
	if temps := tempTables(s); len(temps) != 1 {
		t.Fatalf("temp tables after a failed load = %v, want the one cached table", temps)
	}
}
