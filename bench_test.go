package hana

// One benchmark per figure/table of the paper, plus ablation benches for
// the design choices DESIGN.md calls out. The heavyweight federated setup
// (Figures 14/15) is shared across benchmark invocations.
//
//	go test -bench=. -benchmem
//
// Figure-shaped output (the actual percentage tables) comes from
// cmd/benchfig; these benches measure the same code paths under the Go
// benchmark harness.

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"hana/internal/bench"
	"hana/internal/colstore"
	"hana/internal/engine"
	"hana/internal/esp"
	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/timeseries"
	"hana/internal/tpch"
	"hana/internal/value"
)

// --- shared federated setup (FIG14/FIG15/TAB-CAP) ---

var (
	fedOnce sync.Once
	fedInst *bench.Federation
	fedErr  error
	fedDir  string
)

func federation(b *testing.B) *bench.Federation {
	b.Helper()
	fedOnce.Do(func() {
		fedDir, fedErr = os.MkdirTemp("", "hana-bench-*")
		if fedErr != nil {
			return
		}
		fedInst, fedErr = bench.SetupFederation(bench.FederationConfig{
			SF: 0.01, ExtDir: fedDir,
		})
	})
	if fedErr != nil {
		b.Fatal(fedErr)
	}
	return fedInst
}

// BenchmarkFig14RemoteMaterialization measures, per TPC-H query, the
// normal SDA execution versus the cached (remote materialization) run —
// the two bar sets behind Figure 14.
func BenchmarkFig14RemoteMaterialization(b *testing.B) {
	fed := federation(b)
	queries := tpch.Queries()
	for _, id := range tpch.QueryIDs() {
		q := queries[id]
		sql := tpch.UsesLocalPart(q)
		hinted := sql + " WITH HINT (USE_REMOTE_CACHE)"
		b.Run(fmt.Sprintf("Q%02d/normal", id), func(b *testing.B) {
			fed.Server.MS.CacheInvalidateAll()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.Engine.ExecuteContext(context.Background(), sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/cached", id), func(b *testing.B) {
			fed.Server.MS.CacheInvalidateAll()
			// Populate the materialization outside the timed region.
			if _, err := fed.Engine.ExecuteContext(context.Background(), hinted); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fed.Engine.ExecuteContext(context.Background(), hinted); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15MaterializationOverhead measures the cache-populating
// first run (normal execution + CTAS materialization) — Figure 15's cost.
func BenchmarkFig15MaterializationOverhead(b *testing.B) {
	fed := federation(b)
	queries := tpch.Queries()
	for _, id := range tpch.QueryIDs() {
		q := queries[id]
		hinted := tpch.UsesLocalPart(q) + " WITH HINT (USE_REMOTE_CACHE)"
		b.Run(fmt.Sprintf("Q%02d/materialize", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Invalidate so every iteration pays the materialization.
				fed.Server.MS.CacheInvalidateAll()
				if _, err := fed.Engine.ExecuteContext(context.Background(), hinted); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCapabilityShipping (TAB-CAP) compares shipping one merged
// remote join against fetching both tables and joining locally — the
// effect of the CAP_JOINS capability flag.
func BenchmarkCapabilityShipping(b *testing.B) {
	fed := federation(b)
	sql := `SELECT COUNT(*) FROM customer JOIN orders ON c_custkey = o_custkey WHERE c_mktsegment = 'BUILDING'`
	b.Run("with-CAP_JOINS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fed.Engine.ExecuteContext(context.Background(), sql); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The no-caps variant is exercised through a second engine whose
	// adapter hides join support, forcing per-table fetches.
	b.Run("without-CAP_JOINS", func(b *testing.B) {
		e2 := engine.New(engine.Config{ExtendedStorageDir: b.TempDir()})
		e2.Registry().Register("hiveodbc", limitedFactory())
		if _, err := e2.ExecuteContext(context.Background(), fmt.Sprintf(
			`CREATE REMOTE SOURCE H ADAPTER "hiveodbc" CONFIGURATION 'DSN=%s'`, fed.Host)); err != nil {
			b.Fatal(err)
		}
		for _, t := range []string{"customer", "orders"} {
			if _, err := e2.ExecuteContext(context.Background(), fmt.Sprintf(`CREATE VIRTUAL TABLE %s AT "H"."d"."d"."%s"`, t, t)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e2.ExecuteContext(context.Background(), sql); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// capStripped hides CAP_JOINS & co from the Hive adapter, forcing
// per-table shipping.
type capStripped struct{ *hive.Adapter }

func (c *capStripped) Capabilities() fed.Capabilities {
	caps := c.Adapter.Capabilities()
	caps.Joins, caps.JoinsOuter, caps.GroupBy, caps.Subqueries = false, false, false, false
	return caps
}

func limitedFactory() fed.Factory {
	base := hive.NewAdapterFactory()
	return func(cfg, cred map[string]string) (fed.Adapter, error) {
		a, err := base(cfg, nil)
		if err != nil {
			return nil, err
		}
		return &capStripped{Adapter: a.(*hive.Adapter)}, nil
	}
}

// --- FIG2: time-series compression ---

func BenchmarkFig2TimeSeriesCompression(b *testing.B) {
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.RunFig2(100000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.VsRow, "x-vs-row")
			b.ReportMetric(r.VsColumnar, "x-vs-columnar")
		}
	})
	b.Run("decode", func(b *testing.B) {
		s := timeseries.New(time.Unix(0, 0), time.Second, timeseries.CompensateLinear)
		for i := 0; i < 100000; i++ {
			s.Append(float64(i % 7))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.Values()) != 100000 {
				b.Fatal("decode")
			}
		}
	})
}

// --- FIG7: federated strategies over the extended store ---

func BenchmarkFig7FederatedStrategies(b *testing.B) {
	dir := b.TempDir()
	r, err := bench.RunFig7(dir, 100000)
	if err != nil {
		b.Fatal(err)
	}
	if r.SemiJoinsChosen == 0 {
		b.Fatal("semijoin not chosen")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig7(b.TempDir(), 100000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- TAB-ESP: stream integration throughput ---

func BenchmarkESPIntegration(b *testing.B) {
	schema := value.NewSchema(
		value.Column{Name: "cell", Kind: value.KindInt},
		value.Column{Name: "sig", Kind: value.KindDouble},
	)
	mkRow := func(i int) value.Row {
		return value.Row{value.NewInt(int64(i % 16)), value.NewDouble(float64(i % 100))}
	}
	now := time.Unix(1700000000, 0)

	b.Run("forward-filtered", func(b *testing.B) {
		p := esp.NewProject()
		_, _ = p.CreateInputStream("s", schema)
		n := 0
		_ = p.SubscribeSink("s", "sig < 10", esp.SinkFunc(func(rows []value.Row, _ *value.Schema) error {
			n += len(rows)
			return nil
		}))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.Publish("s", mkRow(i), now.Add(time.Duration(i)*time.Millisecond))
		}
	})
	b.Run("aggregate-window", func(b *testing.B) {
		p := esp.NewProject()
		_, _ = p.CreateInputStream("s", schema)
		w, _ := p.CreateWindow("agg", `SELECT cell, AVG(sig) FROM s GROUP BY cell KEEP 5 MINUTES`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.Publish("s", mkRow(i), now.Add(time.Duration(i)*time.Millisecond))
		}
		b.StopTimer()
		if _, err := w.Rows(now.Add(time.Duration(b.N) * time.Millisecond)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("pattern-match", func(b *testing.B) {
		p := esp.NewProject()
		_, _ = p.CreateInputStream("s", schema)
		_, _ = p.CreatePattern("x", "s", []string{"sig > 95", "sig > 95"}, time.Minute, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.Publish("s", mkRow(i), now.Add(time.Duration(i)*time.Millisecond))
		}
	})
}

// --- TAB-AGE: hybrid scan cost hot vs cold vs union ---

func BenchmarkHybridAging(b *testing.B) {
	dir := b.TempDir()
	e := engine.New(engine.Config{ExtendedStorageDir: dir})
	if _, err := e.ExecuteContext(context.Background(), `CREATE TABLE f (id BIGINT, v DOUBLE, d DATE, aged BOOLEAN)
		PARTITION BY RANGE (d) (
			PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
			PARTITION OTHERS)`); err != nil {
		b.Fatal(err)
	}
	base, _ := value.ParseDate("2012-01-01")
	var rows []value.Row
	for i := 0; i < 100000; i++ {
		rows = append(rows, value.Row{
			value.NewInt(int64(i)), value.NewDouble(float64(i % 91)),
			value.NewDate(base.I + int64(i%1400)), value.NewBool(false),
		})
	}
	if err := e.BulkLoad("f", rows); err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sql string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExecuteContext(context.Background(), sql); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hot-only", func(b *testing.B) {
		run(b, `SELECT SUM(v) FROM f WHERE d >= DATE '2014-01-01'`)
	})
	b.Run("cold-only", func(b *testing.B) {
		run(b, `SELECT SUM(v) FROM f WHERE d < DATE '2014-01-01'`)
	})
	b.Run("union-plan", func(b *testing.B) {
		run(b, `SELECT SUM(v) FROM f`)
	})
}

// --- ablations ---

// BenchmarkAblationCombiner measures the effect of map-side combining (an
// in-mapper combiner on the cleanup hook) on an aggregation job (DESIGN.md
// ablation: "MR combiner on/off").
func BenchmarkAblationCombiner(b *testing.B) {
	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(256<<10))
	ms := hive.NewMetastore(cluster, "/warehouse")
	mre := mapreduce.NewEngine(cluster, mapreduce.Config{MapSlots: 8, ReduceSlots: 4})
	var lines []byte
	for i := 0; i < 200000; i++ {
		lines = append(lines, fmt.Sprintf("k%d\n", i%32)...)
	}
	_ = cluster.WriteFile("/in/data", lines)
	_ = ms // metastore unused beyond warehouse setup
	sum := func(key string, values []string, emit func(k, v string)) error {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(v)
			total += n
		}
		emit(key, strconv.Itoa(total))
		return nil
	}
	job := func(withCombiner bool, out string) *mapreduce.Job {
		j := &mapreduce.Job{
			Name:   "count",
			Inputs: []string{"/in/data"},
			Output: out,
			Map:    func(_, line string, emit func(k, v string)) error { emit(line, "1"); return nil },
			Reduce: sum,
		}
		if withCombiner {
			// In-mapper combining: each task counts its lines per key and
			// emits the counts from its cleanup hook.
			j.Map, j.NewMapper = nil, func() mapreduce.Mapper {
				counts := map[string]int{}
				return mapreduce.Mapper{
					Map: func(_, line string, _ func(k, v string)) error { counts[line]++; return nil },
					Cleanup: func(emit func(k, v string)) error {
						for k, n := range counts {
							emit(k, strconv.Itoa(n))
						}
						return nil
					},
				}
			}
		}
		return j
	}
	b.Run("with-combiner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mre.RunCtx(context.Background(), job(true, fmt.Sprintf("/out/c%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-combiner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mre.RunCtx(context.Background(), job(false, fmt.Sprintf("/out/n%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDeltaMerge measures scans against merged (compressed)
// versus unmerged (delta) column fragments.
func BenchmarkAblationDeltaMerge(b *testing.B) {
	build := func(merge bool) *colstore.Table {
		t := colstore.NewTable(value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "s", Kind: value.KindVarchar},
		))
		t.AutoMergeThreshold = 0
		for i := 0; i < 200000; i++ {
			_, _ = t.Append(value.Row{value.NewInt(int64(i % 64)), value.NewString(fmt.Sprintf("v%d", i%16))})
		}
		if merge {
			t.Merge()
		}
		return t
	}
	scan := func(b *testing.B, t *colstore.Table) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			var n int64
			t.ScanColumns([]int{0}, func(_ int, row value.Row) bool {
				n += row[0].Int()
				return true
			})
		}
	}
	merged := build(true)
	delta := build(false)
	b.Run("merged-main", func(b *testing.B) { scan(b, merged) })
	b.Run("unmerged-delta", func(b *testing.B) { scan(b, delta) })
	b.Run("memsize", func(b *testing.B) {
		b.ReportMetric(float64(merged.MemSize()), "merged-bytes")
		b.ReportMetric(float64(delta.MemSize()), "delta-bytes")
	})
}
