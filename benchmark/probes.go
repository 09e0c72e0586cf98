package main

// The layer probes: direct calls into each layer's public functions on
// inputs generated from the seed, each inside a span of the benchmark's own
// recorder. This file is the only place that pins signatures below the
// engine API; README.md lists the pinned surface. A refactor that must
// change one of them needs its own benchmark change first.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hana/internal/colstore"
	"hana/internal/diskstore"
	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/tpch"
	"hana/internal/txn"
	"hana/internal/value"
)

// probeReps is how often each probe repeats; the reported number is the
// median repetition.
const probeReps = 7

// probeSet runs every probe and returns metric name → value.
type probeSet struct {
	rec  *recorder
	out  map[string]float64
	seed int64
	data *tpch.Data // TPC-H tables at the probe scale
	dir  string     // scratch directory
}

// timeReps runs fn probeReps times inside spans and returns the median
// duration in nanoseconds.
func (ps *probeSet) timeReps(span string, fn func() error) (float64, error) {
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		id := ps.rec.beginOp(span)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		ps.rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
		ds = append(ds, float64(d.Nanoseconds()))
	}
	return median(ds), nil
}

func runProbes(rec *recorder, p params, dir string) (map[string]float64, error) {
	ps := &probeSet{rec: rec, out: map[string]float64{}, seed: p.seed, data: tpch.Generate(p.sc.probeSF, p.seed), dir: dir}
	for _, probe := range []func() error{ps.parseAndStatement, ps.columnar, ps.worker, ps.wal, ps.disk} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return ps.out, nil
}

// lifecycleStatements are the lifecycle's write statements as the parser
// sees them.
var lifecycleStatements = []string{
	"INSERT INTO events VALUES (1, 2, DATE '2014-01-01', FALSE), (2, 3, DATE '2014-01-01', FALSE), (3, 4, DATE '2014-01-01', FALSE), (4, 5, DATE '2014-01-01', FALSE), (5, 6, DATE '2014-01-01', FALSE)",
	"DELETE FROM events WHERE id = ?",
}

// parseAndStatement probes sqlparse.Parse, and the engine's per-statement
// work (plan, fragment set-up, result assembly) as the 12 queries on an
// engine loaded at a scale where data work is negligible, minus their parse
// time. Planning cannot be called alone: it is interleaved with execution.
func (ps *probeSet) parseAndStatement() error {
	qs := tpch.Queries()
	var queries []string
	for _, id := range tpch.QueryIDs() {
		queries = append(queries, qs[id].SQL)
	}
	parse := func(texts []string) func() error {
		return func() error {
			for _, sql := range texts {
				if _, err := sqlparse.Parse(sql); err != nil {
					return err
				}
			}
			return nil
		}
	}
	all := append(append([]string{}, queries...), lifecycleStatements...)
	nsAll, err := ps.timeReps(probePrefix+"sqlparse.Parse", parse(all))
	if err != nil {
		return err
	}
	ps.out["parse_us_per_stmt"] = nsAll / 1e3 / float64(len(all))
	nsQueries, err := ps.timeReps(probePrefix+"sqlparse.Parse/queries", parse(queries))
	if err != nil {
		return err
	}

	ctx := context.Background()
	tiny := tpch.Generate(0.0005, ps.seed)
	e := engine.New(engine.Config{ExtendedStorageDir: filepath.Join(ps.dir, "tiny-ext"), Parallelism: width()})
	defer e.Close() // in-memory engine: Close has nothing to flush
	schemas := tpch.Schemas()
	for _, t := range tpch.TableNames {
		if err := createAndLoad(ctx, e, t, schemas[t], tiny.Tables[t]); err != nil {
			return err
		}
	}
	nsStmt, err := ps.timeReps(probePrefix+"engine.ExecuteContext/tiny", func() error {
		for _, sql := range queries {
			if _, err := e.ExecuteContext(ctx, sql, engine.WithParallelism(width())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.out["stmt_overhead_us"] = (nsStmt - nsQueries) / 1e3 / float64(len(queries))
	return nil
}

// bindList parses a comma-separated expression list against a schema.
func bindList(schema *value.Schema, list string) ([]expr.Expr, error) {
	st, err := sqlparse.Parse("SELECT " + list)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%q did not parse as a select list", list)
	}
	out := make([]expr.Expr, len(sel.Items))
	for i, it := range sel.Items {
		if err := expr.Bind(it.Expr, schema); err != nil {
			return nil, err
		}
		out[i] = it.Expr
	}
	return out, nil
}

func buildColumnTable(schema *value.Schema, rows []value.Row) (*colstore.Table, error) {
	t := colstore.NewTable(schema)
	for _, r := range rows {
		if _, err := t.Append(r); err != nil {
			return nil, err
		}
	}
	t.Merge()
	return t, nil
}

func readBatches(t *colstore.Table) []*value.Batch {
	var bs []*value.Batch
	for lo := 0; lo < t.NumRows(); lo += exec.DefaultMorselSize {
		bs = append(bs, t.ReadBatch(lo, lo+exec.DefaultMorselSize, nil))
	}
	return bs
}

// columnar probes colstore (ReadBatch, MemSize), expr (SelectBatch with
// Q6's predicate, EvalBatch with Q1's arithmetic) and exec
// (ParallelHashAggregate with Q1's grouping, HashJoinParallel orders ⋈
// lineitem) on one merged lineitem table.
func (ps *probeSet) columnar() error {
	schemas := tpch.Schemas()
	li, err := buildColumnTable(schemas["lineitem"], ps.data.Tables["lineitem"])
	if err != nil {
		return err
	}
	ord, err := buildColumnTable(schemas["orders"], ps.data.Tables["orders"])
	if err != nil {
		return err
	}
	n := float64(li.NumRows())
	ps.out["bytes_per_row"] = float64(li.MemSize()) / n

	ns, err := ps.timeReps(probePrefix+"colstore.Table.ReadBatch", func() error {
		if got := len(readBatches(li)); got == 0 {
			return fmt.Errorf("no batches")
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.out["scan_ns_per_row"] = ns / n

	preds, err := bindList(li.Schema(), "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24")
	if err != nil {
		return err
	}
	var bs []*value.Batch
	selected := 0
	ds := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		bs = readBatches(li) // SelectBatch narrows the batch in place: fresh batches per repetition
		id := ps.rec.beginOp(probePrefix + "expr.SelectBatch")
		start := time.Now()
		for _, b := range bs {
			if err := expr.SelectBatch(preds[0], b); err != nil {
				return err
			}
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds()))
		ps.rec.end(id)
	}
	for _, b := range bs {
		selected += b.Len()
	}
	ps.out["select_ns_per_row"] = median(ds) / n
	ps.out["select_ratio"] = float64(selected) / n

	arith, err := bindList(li.Schema(), "l_extendedprice * (1 - l_discount) * (1 + l_tax)")
	if err != nil {
		return err
	}
	bs = readBatches(li)
	ns, err = ps.timeReps(probePrefix+"expr.EvalBatch", func() error {
		for _, b := range bs {
			if _, err := expr.EvalBatch(arith[0], b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.out["eval_ns_per_row"] = ns / n

	pool := exec.NewPool(width())
	ctx := context.Background()
	cols, err := bindList(li.Schema(), "l_returnflag, l_linestatus, l_quantity, l_extendedprice, l_discount")
	if err != nil {
		return err
	}
	ns, err = ps.timeReps(probePrefix+"exec.ParallelHashAggregate", func() error {
		agg := &exec.ParallelHashAggregate{
			In: exec.NewBatchSlice(li.Schema(), bs), GroupBy: cols[:2],
			Aggs: []exec.AggSpec{{Func: "SUM", Arg: cols[2]}, {Func: "SUM", Arg: cols[3]}, {Func: "AVG", Arg: cols[4]}, {Func: "COUNT"}},
			Pool: pool, Ctx: ctx, Width: width(),
		}
		groups := 0
		for {
			_, ok, err := agg.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			groups++
		}
		if groups == 0 {
			return fmt.Errorf("aggregate produced no groups")
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.out["agg_ns_per_row"] = ns / n

	lkey, err := bindList(li.Schema(), "l_orderkey")
	if err != nil {
		return err
	}
	rkey, err := bindList(ord.Schema(), "o_orderkey")
	if err != nil {
		return err
	}
	build := exec.JoinSide{Batches: readBatches(ord)}
	join := func(probe exec.JoinSide, wantRows int) func() error {
		return func() error {
			rows, err := exec.HashJoinParallel(ctx, pool, width(), 0, nil, exec.JoinInner,
				probe, build, lkey, rkey, nil, ord.Schema().Len())
			if err == nil && len(rows) != wantRows {
				err = fmt.Errorf("join produced %d rows, want %d", len(rows), wantRows)
			}
			return err
		}
	}
	// An empty probe side leaves only the build phase; the full join minus
	// that is the probe phase.
	nsBuild, err := ps.timeReps(probePrefix+"exec.HashJoinParallel/build", join(exec.JoinSide{Batches: []*value.Batch{}}, 0))
	if err != nil {
		return err
	}
	nsJoin, err := ps.timeReps(probePrefix+"exec.HashJoinParallel", join(exec.JoinSide{Batches: bs}, li.NumRows()))
	if err != nil {
		return err
	}
	ps.out["join_build_ns_per_row"] = nsBuild / float64(ord.NumRows())
	ps.out["join_probe_ns_per_row"] = (nsJoin - nsBuild) / n
	return nil
}

// worker probes dist: a worker seeded through LoadCommitted executes a
// filtered scan fragment, and the chunks it emits and the fragment itself
// go through their wire codecs.
func (ps *probeSet) worker() error {
	rows := ps.data.Tables["lineitem"]
	seqs := make([]int64, len(rows))
	for i := range seqs {
		seqs[i] = int64(i)
	}
	w := dist.NewWorker(0, width(), nil)
	w.Register("lineitem", tpch.Schemas()["lineitem"])
	if err := w.LoadCommitted("lineitem", 0, seqs, rows, 1); err != nil {
		return err
	}
	frag := &dist.Fragment{Shard: 0, Snapshot: 1, Width: width(), Table: "lineitem", Binding: "lineitem", Where: "l_quantity < 24"}
	var chunks []*dist.Chunk
	ns, err := ps.timeReps(probePrefix+"dist.Worker.Execute", func() error {
		chunks = chunks[:0]
		return w.Execute(context.Background(), frag, func(c *dist.Chunk) error {
			chunks = append(chunks, c)
			return nil
		})
	})
	if err != nil {
		return err
	}
	ps.out["worker_ns_per_row"] = ns / float64(len(rows))

	shipped := 0
	for _, c := range chunks {
		shipped += len(c.Seqs)
	}
	if shipped == 0 {
		return fmt.Errorf("worker fragment shipped no rows")
	}
	ns, err = ps.timeReps(probePrefix+"dist.Chunk.Encode+DecodeChunk", func() error {
		for _, c := range chunks {
			if _, err := dist.DecodeChunk(c.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ps.out["chunk_codec_ns_per_row"] = ns / float64(shipped)

	ns, err = ps.timeReps(probePrefix+"dist.Fragment.Encode+DecodeFragment", func() error {
		_, err := dist.DecodeFragment(frag.Encode())
		return err
	})
	if err != nil {
		return err
	}
	ps.out["fragment_codec_us"] = ns / 1e3
	return nil
}

// wal probes txn: five redo records and one commit record per transaction,
// appended to a scratch log at SyncCommit.
func (ps *probeSet) wal() error {
	const txs, rowsPerTx = 200, 5
	rows := ps.data.Tables["orders"]
	ds := make([]float64, 0, probeReps)
	var st txn.LogStats
	for rep := 0; rep < probeReps; rep++ {
		path := filepath.Join(ps.dir, fmt.Sprintf("probe-wal-%d.log", rep))
		log, err := txn.OpenLog(path)
		if err != nil {
			return err
		}
		log.SetSyncPolicy(txn.SyncPolicy{Mode: txn.SyncCommit})
		id := ps.rec.beginOp(probePrefix + "txn.Log.AppendLSN")
		start := time.Now()
		for t := 0; t < txs; t++ {
			tid := uint64(t + 1)
			for i := 0; i < rowsPerTx; i++ {
				note := string(value.AppendRow(nil, rows[(t*rowsPerTx+i)%len(rows)]))
				if _, err := log.AppendLSN(txn.Record{Type: txn.RecData, TID: tid, Note: note}); err != nil {
					_ = log.Close()
					return err
				}
			}
			if _, err := log.AppendLSN(txn.Record{Type: txn.RecCommit, TID: tid, CID: tid}); err != nil {
				_ = log.Close()
				return err
			}
		}
		ds = append(ds, float64(time.Since(start).Nanoseconds()))
		ps.rec.end(id)
		st = log.Stats()
		if err := log.Close(); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	ps.out["wal_append_us"] = median(ds) / 1e3 / float64(st.Appends)
	ps.out["wal_bytes_per_row"] = float64(st.Bytes) / float64(txs*rowsPerTx)
	ps.out["fsyncs_per_tx"] = float64(st.Syncs) / txs
	return nil
}

// disk probes diskstore: a table bulk-loaded in date order is reopened (cold
// chunk cache) and scanned in full, then scanned again under a Range that
// the zone maps prune to a tenth.
func (ps *probeSet) disk() error {
	const rows = 64 * 1024
	dir := filepath.Join(ps.dir, "probe-disk")
	store, err := diskstore.Open(dir)
	if err != nil {
		return err
	}
	schema := value.NewSchema(
		value.Column{Name: "id", Kind: value.KindInt}, value.Column{Name: "v", Kind: value.KindDouble},
		value.Column{Name: "d", Kind: value.KindDate}, value.Column{Name: "aged", Kind: value.KindBool},
	)
	t, err := store.CreateTable("probe", schema)
	if err != nil {
		return err
	}
	data := make([]value.Row, rows)
	userBytes := 0
	for i := range data {
		data[i] = value.Row{value.NewInt(int64(i)), value.NewDouble(float64(i % 97)), value.NewDate(15000 + int64(i/lifeRowsPerDay)), value.NewBool(false)}
		userBytes += len(value.AppendRow(nil, data[i]))
	}
	if err := t.BulkLoad(data); err != nil {
		return err
	}
	size, err := t.DiskSize()
	if err != nil {
		return err
	}
	ps.out["disk_bytes_per_user_byte"] = float64(size) / float64(userBytes)

	hi := value.NewDate(15000 + rows/lifeRowsPerDay/10)
	var full, pruned []float64
	for rep := 0; rep < probeReps; rep++ {
		store, err := diskstore.Open(dir) // a fresh store has an empty chunk cache
		if err != nil {
			return err
		}
		t, ok := store.Table("probe")
		if !ok {
			return fmt.Errorf("probe table missing after reopen")
		}
		scan := func(span string, ranges map[int]diskstore.Range) (float64, int, error) {
			seen := 0
			id := ps.rec.beginOp(span)
			start := time.Now()
			err := t.Scan(nil, ranges, func(int64, value.Row) bool { seen++; return true })
			d := time.Since(start)
			ps.rec.end(id)
			return float64(d.Nanoseconds()), seen, err
		}
		ns, seen, err := scan(probePrefix+"diskstore.Table.Scan", nil)
		if err != nil {
			return err
		}
		if seen != rows {
			return fmt.Errorf("disk scan saw %d rows, want %d", seen, rows)
		}
		full = append(full, ns/float64(rows))
		ns, seen, err = scan(probePrefix+"diskstore.Table.Scan/range", map[int]diskstore.Range{2: {Hi: &hi}})
		if err != nil {
			return err
		}
		if seen == 0 || seen == rows {
			return fmt.Errorf("ranged disk scan saw %d of %d rows", seen, rows)
		}
		pruned = append(pruned, ns/float64(seen))
	}
	ps.out["disk_scan_ns_per_row"] = median(full)
	ps.out["disk_pruned_scan_ns_per_row"] = median(pruned)
	return nil
}

// layerMetrics is every per-layer metric, in report order, with its unit.
// Probe metrics are measured in every traced run; the others come from the
// workload's own counters and spans and read 0 where the layer is off the
// workload's path — which is the "should not move" half of the prediction
// table in README.md.
var layerMetrics = []struct{ name, unit string }{
	{"parse_us_per_stmt", "us"}, {"stmt_overhead_us", "us"},
	{"scan_ns_per_row", "ns"}, {"bytes_per_row", "B"},
	{"select_ns_per_row", "ns"}, {"eval_ns_per_row", "ns"}, {"select_ratio", "ratio"},
	{"agg_ns_per_row", "ns"}, {"join_build_ns_per_row", "ns"}, {"join_probe_ns_per_row", "ns"},
	{"worker_ns_per_row", "ns"}, {"chunk_codec_ns_per_row", "ns"}, {"fragment_codec_us", "us"},
	{"wal_append_us", "us"}, {"wal_bytes_per_row", "B"}, {"fsyncs_per_tx", "count"},
	{"disk_scan_ns_per_row", "ns"}, {"disk_pruned_scan_ns_per_row", "ns"}, {"disk_bytes_per_user_byte", "ratio"},
	{"allocs_per_pass", "count"}, {"alloc_mb_per_pass", "MB"},
	{"rows_scanned_per_pass", "count"}, {"morsels_per_pass", "count"},
	{"fragments_per_query", "count"}, {"rows_merged_per_query", "count"},
	{"remote_share_pct", "%"}, {"remote_cache_hit_ratio", "ratio"}, {"rows_fetched_per_query", "count"},
	{"mr_map_input_records_per_pass", "count"}, {"hdfs_mb_materialized_per_pass", "MB"},
	{"wal_appends_per_pass", "count"}, {"wal_fsyncs_per_pass", "count"},
	{"chunks_read_per_query", "count"}, {"zone_skip_ratio", "ratio"}, {"chunk_cache_hit_ratio", "ratio"},
	{"trace_overhead_pct", "%"},
}

// perLayer assembles the per-layer metrics of a traced run: the probes, the
// workload's counter deltas over all timed passes, the remote share of the
// traced root spans, and the tracing overhead.
func perLayer(r *run, p params, dir string, passes int, allocs, allocMB []float64, delta map[string]int64) ([]metric, error) {
	vals, err := runProbes(r.rec, p, dir)
	if err != nil {
		return nil, err
	}
	ops := 0 // timed operations
	for _, set := range []*sampleSet{&r.samples, &r.traced} {
		for _, xs := range set.ms {
			ops += len(xs)
		}
	}
	ratio := func(a, b int64) float64 { // 0 where the layer did no work
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	per := func(total int64, n int) float64 { return ratio(total, int64(n)) }
	vals["allocs_per_pass"] = median(allocs)
	vals["alloc_mb_per_pass"] = median(allocMB)
	vals["rows_scanned_per_pass"] = per(r.stats.RowsScanned, passes)
	vals["morsels_per_pass"] = per(r.stats.Morsels, passes)
	vals["fragments_per_query"] = per(delta["dist_fragments"], ops)
	vals["rows_merged_per_query"] = per(delta["dist_rows_merged"], ops)
	vals["remote_cache_hit_ratio"] = ratio(delta["remote_cache_hits"], delta["remote_queries"])
	vals["rows_fetched_per_query"] = per(delta["remote_rows_fetched"], ops)
	vals["mr_map_input_records_per_pass"] = per(delta["mr_map_input_records"], passes)
	vals["hdfs_mb_materialized_per_pass"] = per(delta["hdfs_bytes_used"], passes) / (1 << 20)
	vals["wal_appends_per_pass"] = per(delta["wal_appends"], passes)
	vals["wal_fsyncs_per_pass"] = per(delta["wal_fsyncs"], passes)
	vals["chunks_read_per_query"] = per(delta["read_chunks_read"], int(delta["read_ops"]))
	touched := delta["read_chunks_read"] + delta["read_chunk_cache_hits"]
	vals["zone_skip_ratio"] = ratio(delta["read_chunks_skipped"], touched+delta["read_chunks_skipped"])
	vals["chunk_cache_hit_ratio"] = ratio(delta["read_chunk_cache_hits"], touched)

	// The adapter shim's spans are the only children recorded, so what the
	// root spans do not spend themselves is time at the remote source.
	if total, self := r.rec.rootTimes(); total > 0 {
		vals["remote_share_pct"] = 100 * float64(total-self) / float64(total)
	}
	if off := r.samples.suite(nil); off > 0 {
		vals["trace_overhead_pct"] = 100 * (r.traced.suite(nil) - off) / off
	}

	out := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		out[i] = metric{Name: m.name, Unit: m.unit, Value: vals[m.name], N: passes}
	}
	return out, nil
}
