package hana

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/esp"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// One SQL surface over four processors: a SELECT block's back end —
// aggregate analysis, HAVING, projection, DISTINCT, ORDER BY, LIMIT — is
// exec.Block wherever it runs, so the same block over the same rows must give
// the same rows and the same schema (names and kinds) through the engine, the
// engine over two shards, the Hive executor and an ESP window. Every
// processor sums with exec.ExactSum, so their different summation orders
// cannot show.
func TestBlockBackEndAgreesAcrossProcessors(t *testing.T) {
	schema := value.NewSchema(
		value.Column{Name: "k", Kind: value.KindInt},
		value.Column{Name: "g", Kind: value.KindInt},
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "x", Kind: value.KindDouble},
	)
	names := []string{"ash", "birch", "cedar", "dogwood", "elm"}
	var rows []value.Row
	for i := 0; i < 60; i++ {
		s, x := value.NewString(names[i%len(names)]), value.NewDouble(float64(i%11)*0.25)
		if i%13 == 7 {
			s = value.Null
		}
		if i%17 == 3 {
			x = value.Null
		}
		rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 4)), s, x})
	}

	type result struct {
		schema *value.Schema
		rows   []value.Row
	}
	ctx := context.Background()
	engineAt := func(shards int) func(string) (result, error) {
		e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir(), Parallelism: 2, Topology: dist.Topology{Shards: shards}})
		if _, err := e.ExecuteContext(ctx, "CREATE TABLE t (k BIGINT, g BIGINT, s VARCHAR, x DOUBLE)"); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad("t", rows); err != nil {
			t.Fatal(err)
		}
		return func(sql string) (result, error) {
			res, err := e.ExecuteContext(ctx, sql)
			if err != nil {
				return result{}, err
			}
			return result{res.Schema, res.Rows}, nil
		}
	}

	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(4096), hdfs.WithReplication(2))
	ms := hive.NewMetastore(cluster, "/warehouse")
	if _, err := ms.CreateTable("t", schema, false); err != nil {
		t.Fatal(err)
	}
	if err := ms.LoadRows("t", rows, 3); err != nil {
		t.Fatal(err)
	}
	hiveExec := hive.NewExecutor(ms, mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 4, ReduceSlots: 2, DefaultReducers: 2}))

	now := time.Date(2015, 3, 23, 0, 0, 0, 0, time.UTC)
	window := func(sql string) (result, error) {
		p := esp.NewProject()
		if _, err := p.CreateInputStream("t", schema); err != nil {
			return result{}, err
		}
		w, err := p.CreateWindow("w", sql+" KEEP 1000 ROWS")
		if err != nil {
			return result{}, err
		}
		for _, r := range rows {
			if err := p.Publish("t", r, now); err != nil {
				return result{}, err
			}
		}
		res, err := w.Rows(now)
		if err != nil {
			return result{}, err
		}
		return result{res.Schema, res.Data}, nil
	}

	processors := []struct {
		name string
		run  func(string) (result, error)
	}{
		{"engine", engineAt(0)},
		{"engine shards=2", engineAt(2)},
		{"hive", func(sql string) (result, error) {
			res, err := hiveExec.Query(sql)
			if err != nil {
				return result{}, err
			}
			return result{res.Schema, res.Data}, nil
		}},
		{"esp window", window},
	}

	cases := []struct {
		name, sql string
		ordered   bool // ORDER BY fixes the row order; otherwise rows compare as a multiset
		wantErr   bool
		wantRows  int // -1 = not pinned
	}{
		{"star", "SELECT * FROM t", false, false, 60},
		{"qualified star", "SELECT t.* FROM t WHERE k < 10", false, false, 10},
		{"alias reused in ORDER BY", "SELECT g, SUM(k) AS total FROM t GROUP BY g ORDER BY total DESC", true, false, 4},
		{"GROUP BY MOD", "SELECT MOD(k, 3), COUNT(*) FROM t GROUP BY MOD(k, 3)", false, false, 3},
		{"GROUP BY FLOOR", "SELECT FLOOR(x) AS f, MIN(k), MAX(s) FROM t GROUP BY FLOOR(x)", false, false, -1},
		{"HAVING on a non-projected aggregate, ORDER BY DESC, LIMIT", "SELECT s FROM t GROUP BY s HAVING MIN(k) > 0 ORDER BY s DESC LIMIT 2", true, false, 2},
		{"ORDER BY a non-projected column", "SELECT s FROM t WHERE k < 20 ORDER BY k DESC", true, false, 20},
		{"ORDER BY a non-projected aggregate", "SELECT g FROM t GROUP BY g ORDER BY MAX(k) DESC", true, false, 4},
		{"DISTINCT", "SELECT DISTINCT g, s FROM t", false, false, -1},
		{"LIMIT", "SELECT k, s FROM t ORDER BY k DESC LIMIT 5", true, false, 5},
		{"COUNT(DISTINCT) beside a float SUM", "SELECT g, COUNT(DISTINCT s), SUM(x) FROM t GROUP BY g", false, false, 4},
		{"STDDEV and VAR", "SELECT g, STDDEV(x), VAR(x) FROM t GROUP BY g", false, false, 4},
		{"global STDDEV", "SELECT STDDEV(x), AVG(x) FROM t", false, false, 1},
		{"global aggregate over empty input", "SELECT COUNT(*), SUM(x), MAX(s) FROM t WHERE k < 0", false, false, 1},
		{"unknown aggregate argument", "SELECT SUM(nosuch) FROM t", false, true, -1},
		{"ORDER BY, LIMIT 0", "SELECT k FROM t ORDER BY k LIMIT 0", true, false, 0},
		{"DISTINCT, ORDER BY two keys, LIMIT", "SELECT DISTINCT g, s FROM t ORDER BY s DESC, g LIMIT 7", true, false, 7},
		{"hidden sort column dropped after LIMIT", "SELECT s FROM t WHERE k < 20 ORDER BY k DESC LIMIT 3", true, false, 3},
		{"HAVING keeps no group", "SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 100", false, false, 0},
		{"ORDER BY a non-projected aggregate and a group, LIMIT", "SELECT g FROM t GROUP BY g ORDER BY SUM(x) DESC, g LIMIT 2", true, false, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want result
			for i, p := range processors {
				got, err := p.run(c.sql)
				if c.wantErr {
					if err == nil {
						t.Errorf("%s: %q must be an error, got %v", p.name, c.sql, got.rows)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %q: %v", p.name, c.sql, err)
					continue
				}
				if !c.ordered {
					sort.SliceStable(got.rows, func(a, b int) bool { return fmt.Sprint(got.rows[a]) < fmt.Sprint(got.rows[b]) })
				}
				if c.wantRows >= 0 && len(got.rows) != c.wantRows {
					t.Errorf("%s: %q returned %d rows, want %d", p.name, c.sql, len(got.rows), c.wantRows)
				}
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.schema, want.schema) {
					t.Errorf("%s: schema of %q\ngot:  %v\nwant: %v (%s)", p.name, c.sql, got.schema, want.schema, processors[0].name)
				}
				if !reflect.DeepEqual(got.rows, want.rows) {
					t.Errorf("%s: rows of %q\ngot:  %v\nwant: %v (%s)", p.name, c.sql, got.rows, want.rows, processors[0].name)
				}
			}
		})
	}
}
