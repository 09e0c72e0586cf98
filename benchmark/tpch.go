package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/tpch"
	"hana/internal/value"
)

// width is the load every workload is sized to: the host's usable cores.
func width() int { return runtime.GOMAXPROCS(0) }

func createAndLoad(ctx context.Context, e *engine.Engine, name string, schema *value.Schema, rows []value.Row) error {
	cols := make([]string, len(schema.Cols))
	for i, c := range schema.Cols {
		cols[i] = c.Name + " " + c.Kind.String()
	}
	ddl := fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(cols, ", "))
	if _, err := e.ExecuteContext(ctx, ddl); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	if err := e.BulkLoad(name, rows); err != nil {
		return fmt.Errorf("load %s: %w", name, err)
	}
	return e.Analyze(name)
}

func queryClass(id int) string { return fmt.Sprintf("Q%d", id) }

// tpchInst is the all-in-engine TPC-H instance behind tpch_local and
// tpch_dist2; only the topology differs.
type tpchInst struct {
	e *engine.Engine
	// oracleOpts pin the warm-up pass to one local worker: its results are
	// the oracle every timed pass at full width (and on shards) must equal.
	oracleOpts []engine.ExecOption
}

func setupTPCHLocal(p params) (instance, error) {
	return setupTPCH(p, dist.Topology{}, []engine.ExecOption{engine.WithParallelism(1)})
}

func setupTPCHDist2(p params) (instance, error) {
	return setupTPCH(p, dist.Topology{Shards: 2},
		[]engine.ExecOption{engine.WithParallelism(1), engine.WithLocalOnly()})
}

func setupTPCH(p params, topo dist.Topology, oracleOpts []engine.ExecOption) (instance, error) {
	ctx := context.Background()
	data := tpch.Generate(p.sc.tpchSF, p.seed)
	e := engine.New(engine.Config{
		ExtendedStorageDir: filepath.Join(p.scratch, "ext"),
		Parallelism:        width(),
		Topology:           topo,
	})
	schemas := tpch.Schemas()
	for _, t := range tpch.TableNames {
		if err := createAndLoad(ctx, e, t, schemas[t], data.Tables[t]); err != nil {
			return nil, err
		}
	}
	return &tpchInst{e: e, oracleOpts: oracleOpts}, nil
}

func (t *tpchInst) queries(r *run, opts ...engine.ExecOption) {
	qs := tpch.Queries()
	for _, id := range tpch.QueryIDs() {
		sql, class := qs[id].SQL, queryClass(id)
		r.op(class, class, func() (*engine.Result, error) { return t.e.ExecuteContext(r.ctx, sql, opts...) })
	}
}

func (t *tpchInst) warm(r *run) error { t.queries(r, t.oracleOpts...); return nil }
func (t *tpchInst) pass(r *run) error { t.queries(r, engine.WithParallelism(width())); return nil }
func (t *tpchInst) close() error      { return t.e.Close() }

func (t *tpchInst) counters() map[string]int64 {
	out := execCounters(t.e)
	out["dist_queries"] = t.e.Metrics.DistQueries.Load()
	out["dist_fragments"] = t.e.Metrics.DistFragments.Load()
	out["dist_rows_merged"] = t.e.Metrics.DistRowsMerged.Load()
	out["dist_retries"] = t.e.Metrics.DistRetries.Load()
	out["dist_failovers"] = t.e.Metrics.DistFailovers.Load()
	return out
}

// execCounters starts a counter snapshot with the executor's totals, which
// every workload reports.
func execCounters(e *engine.Engine) map[string]int64 {
	return map[string]int64{
		"rows_scanned": e.Obs().Counter("exec.rows_scanned").Load(),
		"morsels":      e.Obs().Counter("exec.morsels").Load(),
	}
}

// spanAdapter is the benchmark's seam into the federation layer: it wraps
// the adapter the Hive factory returns and records one span per shipped
// query. With the recorder off it only forwards.
type spanAdapter struct {
	fed.Adapter
	rec *recorder
}

func (a *spanAdapter) Query(sql string, opts fed.QueryOptions) (*fed.QueryResult, error) {
	id := a.rec.beginChild("fed.Adapter.Query")
	res, err := a.Adapter.Query(sql, opts)
	a.rec.end(id)
	return res, err
}

func spanFactory(rec *recorder) fed.Factory {
	base := hive.NewAdapterFactory()
	return func(cfg, cred map[string]string) (fed.Adapter, error) {
		a, err := base(cfg, cred)
		if err != nil {
			return nil, err
		}
		return &spanAdapter{Adapter: a, rec: rec}, nil
	}
}

// fedInst is the paper's §4.4 deployment: tpch.FederatedTables at an
// in-process Hive (HDFS + MapReduce), tpch.LocalTables and part_local in
// the engine.
type fedInst struct {
	e   *engine.Engine
	srv *hive.Server
}

func setupTPCHFed(p params) (instance, error) {
	ctx := context.Background()
	data := tpch.Generate(p.sc.fedSF, p.seed)
	schemas := tpch.Schemas()

	cluster := hdfs.NewCluster(7, hdfs.WithBlockSize(1<<20), hdfs.WithReplication(3))
	ms := hive.NewMetastore(cluster, "/warehouse")
	// Deviation from the paper's 240/120 slots: the simulated cluster shares
	// the host's cores, so slots equal the load the benchmark is sized to.
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{
		MapSlots: width(), ReduceSlots: width(), DefaultReducers: 4, JobStartup: p.sc.jobStartup,
	})
	host := fmt.Sprintf("hive-benchmark-%d-%s", os.Getpid(), filepath.Base(p.scratch))
	srv := hive.NewServer(host, ms, mr)
	hive.RegisterServer(srv)
	for _, t := range tpch.FederatedTables {
		if _, err := ms.CreateTable(t, schemas[t], false); err != nil {
			return nil, err
		}
		if err := ms.LoadRows(t, data.Tables[t], 1+len(data.Tables[t])/50000); err != nil {
			return nil, err
		}
	}

	e := engine.New(engine.Config{
		ExtendedStorageDir:  filepath.Join(p.scratch, "ext"),
		EnableRemoteCache:   true,
		RemoteCacheValidity: time.Hour,
		Parallelism:         width(),
	})
	e.Registry().Register("hiveodbc", spanFactory(p.rec))
	if _, err := e.ExecuteContext(ctx, fmt.Sprintf(
		`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc" CONFIGURATION 'DSN=%s'
		 WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`, host)); err != nil {
		return nil, err
	}
	for _, t := range tpch.FederatedTables {
		if _, err := e.ExecuteContext(ctx, fmt.Sprintf(`CREATE VIRTUAL TABLE %s AT "HIVE1"."dflo"."dflo"."%s"`, t, t)); err != nil {
			return nil, err
		}
	}
	for _, t := range tpch.LocalTables {
		if err := createAndLoad(ctx, e, t, schemas[t], data.Tables[t]); err != nil {
			return nil, err
		}
	}
	if err := createAndLoad(ctx, e, "part_local", schemas["part"].Clone(), data.Tables["part"]); err != nil {
		return nil, err
	}
	return &fedInst{e: e, srv: srv}, nil
}

// queries runs every query three ways: normal (cache invalidated),
// materialize (first USE_REMOTE_CACHE run) and cached (second hinted run).
// All three must equal the warm-up's normal result.
func (f *fedInst) queries(r *run) {
	qs := tpch.Queries()
	opt := engine.WithParallelism(width())
	for _, id := range tpch.QueryIDs() {
		sql, key := tpch.UsesLocalPart(qs[id]), queryClass(id)
		hinted := sql + " WITH HINT (USE_REMOTE_CACHE)"
		f.srv.MS.CacheInvalidateAll()
		r.op(key+"/normal", key, func() (*engine.Result, error) { return f.e.ExecuteContext(r.ctx, sql, opt) })
		r.op(key+"/materialize", key, func() (*engine.Result, error) { return f.e.ExecuteContext(r.ctx, hinted, opt) })
		r.op(key+"/cached", key, func() (*engine.Result, error) { return f.e.ExecuteContext(r.ctx, hinted, opt) })
	}
}

func (f *fedInst) warm(r *run) error { f.queries(r); return nil }
func (f *fedInst) pass(r *run) error { f.queries(r); return nil }

func (f *fedInst) close() error {
	hive.UnregisterServer(f.srv.Host)
	return f.e.Close()
}

func (f *fedInst) counters() map[string]int64 {
	m := f.e.Metrics.Snapshot()
	c := &f.srv.MR.Counters
	out := execCounters(f.e)
	out["remote_queries"] = m.RemoteQueries
	out["remote_cache_hits"] = m.RemoteCacheHits
	out["remote_rows_fetched"] = m.RemoteRowsFetched
	out["semijoins_chosen"] = m.SemiJoinsChosen
	out["mr_jobs"] = f.srv.MR.JobsRun.Load()
	out["mr_map_input_records"] = c.MapInputRecords.Load()
	out["mr_map_output_records"] = c.MapOutputRecords.Load()
	out["mr_combine_out_records"] = c.CombineOutRecords.Load()
	out["mr_reduce_input_groups"] = c.ReduceInputGroups.Load()
	out["mr_reduce_out_records"] = c.ReduceOutRecords.Load()
	out["mr_task_retries"] = c.TaskRetries.Load()
	out["hdfs_bytes_used"] = f.srv.MS.Cluster().TotalUsed()
	return out
}
