package hive

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"hana/internal/engine"
	"hana/internal/faults"
	"hana/internal/hdfs"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// A filtered query over a created but empty table answers: the leaf's
// filter runs in the consuming job's map phase, and a job with no map task
// still leaves its output directory for the next one. Both hold through the
// executor and through a virtual table in the engine.
func TestFilteredQueryOverEmptyTable(t *testing.T) {
	s := newTestServer(t)
	s.Host = "hive-empty"
	schema := value.NewSchema(value.Column{Name: "g", Kind: value.KindInt}, value.Column{Name: "x", Kind: value.KindDouble})
	if _, err := s.MS.CreateTable("t", schema, false); err != nil {
		t.Fatal(err)
	}
	RegisterServer(s)
	defer UnregisterServer(s.Host)
	e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir()})
	defer e.Close()
	e.Registry().Register("hiveodbc", NewAdapterFactory())
	ctx := context.Background()
	for _, ddl := range []string{
		`CREATE REMOTE SOURCE H ADAPTER "hiveodbc" CONFIGURATION 'DSN=hive-empty'`,
		`CREATE VIRTUAL TABLE t AT "H"."dflo"."dflo"."t"`,
	} {
		if _, err := e.ExecuteContext(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM t WHERE g > 1`, "[[0]]"},
		{`SELECT g, COUNT(*), SUM(x) FROM t WHERE g > 1 GROUP BY g`, "[]"},
		{`SELECT g FROM t WHERE g > 1`, "[]"},
	} {
		rows, err := s.Exec.Query(tc.sql)
		if err != nil {
			t.Errorf("executor: %s: %v", tc.sql, err)
		} else if got := fmt.Sprint(rows.Data); got != tc.want {
			t.Errorf("executor: %s = %s, want %s", tc.sql, got, tc.want)
		}
		res, err := e.ExecuteContext(ctx, tc.sql)
		if err != nil {
			t.Errorf("engine: %s: %v", tc.sql, err)
		} else if got := fmt.Sprint(res.Rows); got != tc.want {
			t.Errorf("engine: %s = %s, want %s", tc.sql, got, tc.want)
		}
	}
}

// Every subquery shape removes the directories its stages wrote: after each
// query HDFS holds what it held before.
func TestSubqueriesLeaveNoTempDirs(t *testing.T) {
	s := newTestServer(t)
	loadCustomersOrders(t, s)
	c := s.MS.Cluster()
	for _, q := range []string{
		`SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders WHERE o_total > 970)`,
		`SELECT COUNT(*) FROM customer WHERE EXISTS (SELECT * FROM orders WHERE o_custkey = c_custkey AND o_total > 970)`,
		`SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_total > 500)`,
		`SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders
			WHERE o_orderkey IN (SELECT o_orderkey FROM orders WHERE o_total > 900))`,
	} {
		before := c.TotalUsed()
		if _, err := s.Exec.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if after := c.TotalUsed(); after != before {
			t.Errorf("%s: HDFS holds %d bytes after the query, %d before", q, after, before)
		}
	}
}

// Map tasks fold their split through exec's group table and emit one
// partial per group; merged by the reducers, the partials finalise to the
// engine's answer. The keys hold NULL, −0.0 beside 0.0, NaN and 1 beside
// 1.0, which must each land in one group, and one global aggregate's filter
// empties every split. A run whose first map attempts fail reads and emits
// what the fault-free run does: a retried attempt starts from fresh state.
func TestMapSidePartialsAgreeWithEngine(t *testing.T) {
	keys := []value.Value{value.Null, value.NewDouble(math.Copysign(0, -1)), value.NewDouble(0),
		value.NewDouble(math.NaN()), value.NewInt(1), value.NewDouble(1), value.NewDouble(2.5)}
	var rows []value.Row
	for i := 0; i < 4000; i++ {
		x := value.NewDouble(float64(i%97)*0.1 - 3)
		if i%11 == 0 {
			x = value.Null
		}
		rows = append(rows, value.Row{keys[i%len(keys)], value.NewInt(int64(i % 3)), x})
	}
	schema := value.NewSchema(value.Column{Name: "g", Kind: value.KindDouble},
		value.Column{Name: "h", Kind: value.KindInt}, value.Column{Name: "x", Kind: value.KindDouble})
	server := func(inj *faults.Injector) *Server {
		cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(4096), hdfs.WithReplication(2))
		ms := NewMetastore(cluster, "/warehouse")
		mr := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 8, ReduceSlots: 4, DefaultReducers: 2,
			Faults: inj, Retry: faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
		s := NewServer("hive1", ms, mr)
		if _, err := ms.CreateTable("t", schema, false); err != nil {
			t.Fatal(err)
		}
		if err := ms.LoadRows("t", rows, 2); err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := server(nil)
	blocks := 0
	for _, fi := range s.MS.Cluster().List("/warehouse/t") {
		blocks += len(fi.Blocks)
	}
	if blocks < 8 {
		t.Fatalf("table spans %d blocks, want at least 8 map tasks", blocks)
	}
	e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir()})
	defer e.Close()
	ctx := context.Background()
	if _, err := e.ExecuteContext(ctx, "CREATE TABLE t (g DOUBLE, h INTEGER, x DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("t", rows); err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		sql  string
		keys int // leading group-key columns
	}{
		{`SELECT g, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t GROUP BY g`, 1},
		{`SELECT g, h, COUNT(*), SUM(x), MIN(x), MAX(x) FROM t WHERE x > -1 GROUP BY g, h`, 2},
		{`SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t`, 0},
		{`SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t WHERE x > 1000`, 0},
	}
	for _, q := range queries {
		got, err := s.Exec.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		want, err := e.ExecuteContext(ctx, q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGroups(got.Data, want.Rows, q.keys) {
			t.Errorf("%s:\nHive   %v\nengine %v", q.sql, got.Data, want.Rows)
		}
	}

	// The same aggregate with the first map attempts failing.
	inj := faults.New(1)
	faulty := server(inj)
	q := queries[1].sql
	run := func(s *Server) ([]value.Row, int64, int64) {
		c := &s.MR.Counters
		in, comb := c.MapInputRecords.Load(), c.CombineOutRecords.Load()
		rows, err := s.Exec.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Data, c.MapInputRecords.Load() - in, c.CombineOutRecords.Load() - comb
	}
	want, wantIn, wantComb := run(s)
	inj.FailN("mapreduce.map", 2)
	got, gotIn, gotComb := run(faulty)
	if inj.Injected("mapreduce.map") != 2 || faulty.MR.Counters.TaskRetries.Load() != 2 {
		t.Fatalf("injected %d map faults, %d retries; want 2 of each", inj.Injected("mapreduce.map"), faulty.MR.Counters.TaskRetries.Load())
	}
	if !sameGroups(got, want, 2) || gotIn != wantIn || gotComb != wantComb {
		t.Fatalf("with retried map attempts: %v, %d records in, %d partials out\nfault-free: %v, %d in, %d out",
			got, gotIn, gotComb, want, wantIn, wantComb)
	}
}

// sameGroups reports whether two aggregate results hold the same groups,
// in any order: rows pair up by their first nkeys columns' canonical key
// bytes, and every pair of values must be NULL together or Compare equal,
// of one kind.
func sameGroups(a, b []value.Row, nkeys int) bool {
	if len(a) != len(b) {
		return false
	}
	sorted := func(rows []value.Row) []value.Row {
		out := append([]value.Row(nil), rows...)
		sort.Slice(out, func(i, j int) bool { return EncodeKey(out[i][:nkeys]) < EncodeKey(out[j][:nkeys]) })
		return out
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			w := b[i][j]
			if v.K != w.K || value.Compare(v, w) != 0 {
				return false
			}
		}
	}
	return true
}
