package dist

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Worker is one shard node: it holds committed, sequence-tagged copies of
// the shards it owns (primary or replica), executes fragments over them
// with its own morsel pool, and participates in the engine's two-phase
// commit so cross-shard writes land atomically on every replica.
type Worker struct {
	id   int
	pool *exec.Pool
	inj  *faults.Injector

	mu sync.RWMutex
	// hana:guardedby mu
	dead bool
	// tables is keyed by upper-case table name.
	// hana:guardedby mu
	tables map[string]*workerTable

	txMu sync.Mutex
	// hana:guardedby txMu
	txOps map[uint64][]txOp
}

// workerTable is one table's shard copies plus the schema fragments bind
// against.
type workerTable struct {
	schema *value.Schema
	shards map[int]*shardCopy
}

// shardCopy is the replica of one shard: rows ascending by global scan
// sequence, each stamped with the commit IDs that inserted and (possibly)
// deleted it — the worker-side mirror of the engine's MVCC visibility.
type shardCopy struct {
	rows []shardRow
}

type shardRow struct {
	seq int64
	ins uint64 // inserting commit ID
	del uint64 // deleting commit ID (0 = live)
	row value.Row
}

// morselOut is one scan morsel's surviving rows with their sequences.
type morselOut struct {
	rows []value.Row
	seqs []int64
}

// txOp is one buffered replicated write awaiting two-phase commit.
type txOp struct {
	del   bool
	table string
	shard int
	seq   int64
	row   value.Row
}

// NewWorker creates a worker with its own morsel pool of the given width
// (0 = GOMAXPROCS). The injector drives the worker's fault sites
// (dist.worker.<id>.exec, .chunk, .prepare, .commit); nil disables them.
func NewWorker(id, parallelism int, inj *faults.Injector) *Worker {
	return &Worker{
		id:     id,
		pool:   exec.NewPool(parallelism),
		inj:    inj,
		tables: map[string]*workerTable{},
		txOps:  map[uint64][]txOp{},
	}
}

// ID returns the worker's index in the topology.
func (w *Worker) ID() int { return w.id }

// site builds the worker's fault-injection site name for an operation.
func (w *Worker) site(op string) string {
	return fmt.Sprintf("dist.worker.%d.%s", w.id, op)
}

// Kill marks the worker dead: every call fails fatally until Revive. The
// chaos suite uses this to model node loss mid-query.
func (w *Worker) Kill() {
	w.mu.Lock()
	w.dead = true
	w.mu.Unlock()
}

// Revive brings a killed worker back (its shard data is intact — the node
// "rejoined").
func (w *Worker) Revive() {
	w.mu.Lock()
	w.dead = false
	w.mu.Unlock()
}

// Alive reports liveness.
func (w *Worker) Alive() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return !w.dead
}

func (w *Worker) downErr() error {
	return faults.Fatal(fmt.Errorf("dist worker %d is down", w.id))
}

// Register installs (or resets) a table's schema on the worker. Existing
// shard data for the name is dropped — the engine reseeds after schema
// changes.
func (w *Worker) Register(table string, schema *value.Schema) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.tables[strings.ToUpper(table)] = &workerTable{schema: schema, shards: map[int]*shardCopy{}}
}

// Drop removes a table's shard copies.
func (w *Worker) Drop(table string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.tables, strings.ToUpper(table))
}

// Tables lists the registered table names (sorted, for system views).
func (w *Worker) Tables() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.tables))
	for name := range w.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ShardRowCount returns the live row count the worker holds for a table
// shard at the given snapshot.
func (w *Worker) ShardRowCount(table string, shard int, snapshot uint64) int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	wt := w.tables[strings.ToUpper(table)]
	if wt == nil {
		return 0
	}
	sc := wt.shards[shard]
	if sc == nil {
		return 0
	}
	n := 0
	for _, r := range sc.rows {
		if r.visible(snapshot) {
			n++
		}
	}
	return n
}

func (r *shardRow) visible(snapshot uint64) bool {
	return r.ins <= snapshot && (r.del == 0 || r.del > snapshot)
}

// getShard resolves a table's shard copy, creating it on first write.
func (w *Worker) getShardLocked(table string, shard int) (*shardCopy, error) {
	wt := w.tables[strings.ToUpper(table)]
	if wt == nil {
		return nil, faults.Fatal(fmt.Errorf("worker %d: table %s not registered", w.id, table))
	}
	sc := wt.shards[shard]
	if sc == nil {
		sc = &shardCopy{}
		wt.shards[shard] = sc
	}
	return sc, nil
}

// applyInsert lands a committed row at its sequence position. Out-of-order
// commits (two transactions committing in the reverse of their sequence
// order) insert in the middle, keeping the copy sorted.
func (sc *shardCopy) applyInsert(seq int64, cid uint64, row value.Row) {
	i := sort.Search(len(sc.rows), func(i int) bool { return sc.rows[i].seq >= seq })
	if i < len(sc.rows) && sc.rows[i].seq == seq {
		// Idempotent re-delivery (2PC retry): keep the first apply.
		return
	}
	sc.rows = append(sc.rows, shardRow{})
	copy(sc.rows[i+1:], sc.rows[i:])
	sc.rows[i] = shardRow{seq: seq, ins: cid, row: row}
}

func (sc *shardCopy) applyDelete(seq int64, cid uint64) error {
	i := sort.Search(len(sc.rows), func(i int) bool { return sc.rows[i].seq >= seq })
	if i >= len(sc.rows) || sc.rows[i].seq != seq {
		return fmt.Errorf("delete of unknown sequence %d", seq)
	}
	if sc.rows[i].del == 0 {
		sc.rows[i].del = cid
	}
	return nil
}

// LoadCommitted bulk-applies committed rows (initial seeding, BulkLoad
// mirroring, recovery reseed). seqs and rows are parallel slices.
func (w *Worker) LoadCommitted(table string, shard int, seqs []int64, rows []value.Row, cid uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return w.downErr()
	}
	sc, err := w.getShardLocked(table, shard)
	if err != nil {
		return err
	}
	for i, r := range rows {
		sc.applyInsert(seqs[i], cid, r)
	}
	return nil
}

// --- two-phase commit participant ---

// Name implements txn.Participant.
func (w *Worker) Name() string { return fmt.Sprintf("dist:worker:%d", w.id) }

// BufferInsert queues a replicated insert for the transaction.
func (w *Worker) BufferInsert(tid uint64, table string, shard int, seq int64, row value.Row) {
	w.txMu.Lock()
	defer w.txMu.Unlock()
	w.txOps[tid] = append(w.txOps[tid], txOp{table: table, shard: shard, seq: seq, row: row})
}

// BufferDelete queues a replicated delete for the transaction.
func (w *Worker) BufferDelete(tid uint64, table string, shard int, seq int64) {
	w.txMu.Lock()
	defer w.txMu.Unlock()
	w.txOps[tid] = append(w.txOps[tid], txOp{del: true, table: table, shard: shard, seq: seq})
}

// Prepare implements txn.Participant: the worker votes yes when it is alive
// and every buffered write targets a registered table.
func (w *Worker) Prepare(tid uint64) error {
	if !w.Alive() {
		return w.downErr()
	}
	if err := w.inj.Check(w.site("prepare")); err != nil {
		return err
	}
	w.txMu.Lock()
	ops := w.txOps[tid]
	w.txMu.Unlock()
	w.mu.RLock()
	missing := ""
	for _, op := range ops {
		if w.tables[strings.ToUpper(op.table)] == nil {
			missing = op.table
			break
		}
	}
	w.mu.RUnlock()
	if missing != "" {
		return faults.Fatal(fmt.Errorf("worker %d: table %s not registered", w.id, missing))
	}
	return nil
}

// Commit implements txn.Participant: buffered writes become visible at the
// commit ID on every shard copy this worker holds.
func (w *Worker) Commit(tid, cid uint64) error {
	if err := w.inj.Check(w.site("commit")); err != nil {
		return err
	}
	w.txMu.Lock()
	ops := w.txOps[tid]
	delete(w.txOps, tid)
	w.txMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, op := range ops {
		sc, err := w.getShardLocked(op.table, op.shard)
		if err != nil {
			return err
		}
		if op.del {
			if err := sc.applyDelete(op.seq, cid); err != nil {
				return fmt.Errorf("worker %d table %s shard %d: %w", w.id, op.table, op.shard, err)
			}
		} else {
			sc.applyInsert(op.seq, cid, op.row)
		}
	}
	return nil
}

// Abort implements txn.Participant: buffered writes are dropped.
func (w *Worker) Abort(tid uint64) error {
	w.txMu.Lock()
	delete(w.txOps, tid)
	w.txMu.Unlock()
	return nil
}

// --- fragment execution ---

// Execute runs one fragment, streaming result chunks to the sink in morsel
// order. The sink is called on the worker's goroutine; a sink error aborts
// the stream.
func (w *Worker) Execute(ctx context.Context, f *Fragment, sink func(*Chunk) error) error {
	if !w.Alive() {
		return w.downErr()
	}
	if err := w.inj.Check(w.site("exec")); err != nil {
		return err
	}
	rows, seqs, schema, err := w.snapshotShard(f)
	if err != nil {
		return err
	}
	pred, err := parsePredicate(f.Where, schema)
	if err != nil {
		return err
	}

	// Morsel-parallel filter: boundaries depend only on the row count, and
	// kept rows reassemble in morsel order, so the surviving sequence
	// stream is identical at any pool width.
	size := exec.DefaultMorselSize
	nm := (len(rows) + size - 1) / size
	outs := make([]morselOut, nm)
	if nm > 0 {
		_, err = w.pool.Run(ctx, nm, f.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := lo + size
			if hi > len(rows) {
				hi = len(rows)
			}
			mo, err := filterMorsel(pred, rows[lo:hi], seqs[lo:hi])
			if err != nil {
				return err
			}
			outs[m] = mo
			return nil
		})
		if err != nil {
			return err
		}
	}

	if f.Agg == nil && f.Join == nil {
		// Gather scan: one chunk per morsel.
		for m := range outs {
			scanned := min(size, len(rows)-m*size)
			ch := &Chunk{Shard: f.Shard, Worker: w.id, Seqs: outs[m].seqs, Rows: outs[m].rows, Scanned: int64(scanned)}
			if err := w.emit(ch, sink); err != nil {
				return err
			}
		}
		if nm == 0 {
			// Empty shard still reports its (zero) scan so streams stay uniform.
			return w.emit(&Chunk{Shard: f.Shard, Worker: w.id}, sink)
		}
		return nil
	}
	// Aggregate and join fragments hand the surviving rows, in sequence
	// order, to the node-local executor.
	kept, keptSeqs := rows, seqs
	if pred != nil {
		n := 0
		for _, mo := range outs {
			n += len(mo.rows)
		}
		kept, keptSeqs = make([]value.Row, 0, n), make([]int64, 0, n)
		for _, mo := range outs {
			kept = append(kept, mo.rows...)
			keptSeqs = append(keptSeqs, mo.seqs...)
		}
	}
	ch := &Chunk{Shard: f.Shard, Worker: w.id, Scanned: int64(len(rows))}
	if f.Agg != nil {
		ch.Partial, err = w.runAggregate(ctx, f, schema, kept, keptSeqs)
	} else {
		ch.Rows, ch.Seqs, err = w.runJoin(ctx, f, schema, kept, keptSeqs)
	}
	if err != nil {
		return err
	}
	return w.emit(ch, sink)
}

// filterMorsel runs the shipped predicate over one morsel's rows, keeping
// survivors in order. A nil predicate keeps the whole slice without copying.
func filterMorsel(pred expr.Expr, rows []value.Row, seqs []int64) (morselOut, error) {
	if pred == nil {
		return morselOut{rows: rows, seqs: seqs}, nil
	}
	kept := make([]value.Row, 0, len(rows))
	keptSeqs := make([]int64, 0, len(rows))
	for i := range rows {
		ok, err := expr.Truthy(pred, rows[i])
		if err != nil {
			return morselOut{}, err
		}
		if ok {
			kept = append(kept, rows[i])
			keptSeqs = append(keptSeqs, seqs[i])
		}
	}
	return morselOut{rows: kept, seqs: keptSeqs}, nil
}

// emit checks the mid-stream fault site and worker liveness before handing
// a chunk to the sink — the point where a dying worker cuts a stream short.
func (w *Worker) emit(ch *Chunk, sink func(*Chunk) error) error {
	if !w.Alive() {
		return w.downErr()
	}
	if err := w.inj.Check(w.site("chunk")); err != nil {
		return err
	}
	return sink(ch)
}

// snapshotShard extracts the fragment's snapshot-visible rows in sequence
// order under the read lock. Row values are immutable once applied, so the
// extracted slices are safe outside the lock.
func (w *Worker) snapshotShard(f *Fragment) ([]value.Row, []int64, *value.Schema, error) {
	w.mu.RLock()
	wt := w.tables[strings.ToUpper(f.Table)]
	var (
		schema *value.Schema
		rows   []value.Row
		seqs   []int64
	)
	if wt != nil {
		schema = wt.schema.Qualify(f.Binding)
		if sc := wt.shards[f.Shard]; sc != nil {
			rows, seqs = sc.visibleRows(f.Snapshot)
		}
	}
	w.mu.RUnlock()
	if wt == nil {
		return nil, nil, nil, faults.Fatal(fmt.Errorf("worker %d: table %s not registered", w.id, f.Table))
	}
	return rows, seqs, schema, nil
}

// visibleRows extracts the shard copy's snapshot-visible rows in sequence
// order. Caller holds the worker's read lock.
func (sc *shardCopy) visibleRows(snapshot uint64) ([]value.Row, []int64) {
	rows := make([]value.Row, 0, len(sc.rows))
	seqs := make([]int64, 0, len(sc.rows))
	for i := range sc.rows {
		if sc.rows[i].visible(snapshot) {
			rows = append(rows, sc.rows[i].row)
			seqs = append(seqs, sc.rows[i].seq)
		}
	}
	return rows, seqs
}

// runAggregate runs exec's morsel-parallel aggregate over the filtered rows
// and returns its unfinalised group table, each group's First mapped from
// the row's ordinal to its global scan sequence.
func (w *Worker) runAggregate(ctx context.Context, f *Fragment, schema *value.Schema, rows []value.Row, seqs []int64) (*exec.AggPartial, error) {
	groupBy, err := parseExprList(f.Agg.GroupBy, schema)
	if err != nil {
		return nil, err
	}
	aggs := make([]exec.AggSpec, len(f.Agg.Aggs))
	for i, a := range f.Agg.Aggs {
		aggs[i] = exec.AggSpec{Func: a.Func, Distinct: a.Distinct}
		if a.Arg == "" { // COUNT(*)
			continue
		}
		es, err := parseExprList([]string{a.Arg}, schema)
		if err != nil {
			return nil, err
		}
		aggs[i].Arg = es[0]
	}
	agg := &exec.ParallelHashAggregate{In: exec.NewSlice(schema, rows), GroupBy: groupBy, Aggs: aggs, Pool: w.pool, Ctx: ctx, Width: f.Width}
	p, err := agg.Partial()
	if err != nil {
		return nil, err
	}
	for _, g := range p.Groups {
		g.First = seqs[g.First]
	}
	return p, nil
}

// runJoin probes the filtered shard rows against the broadcast build side
// with exec's parallel hash join — the serial hash join's semantics: NULL
// keys never match, matches emitted in build-input order, residual evaluated
// on the combined row. Output rows carry their probe row's sequence, so the
// coordinator merge restores probe-input order globally.
func (w *Worker) runJoin(ctx context.Context, f *Fragment, schema *value.Schema, rows []value.Row, seqs []int64) ([]value.Row, []int64, error) {
	j := f.Join
	buildSchema := &value.Schema{Cols: j.BuildCols}
	probeKeys, err := parseExprList(j.ProbeKeys, schema)
	if err != nil {
		return nil, nil, err
	}
	buildKeys, err := parseExprList(j.BuildKeys, buildSchema)
	if err != nil {
		return nil, nil, err
	}
	residual, err := parsePredicate(j.Residual, schema.Concat(buildSchema))
	if err != nil {
		return nil, nil, err
	}
	out, ords, err := exec.HashJoinProbeOrdinals(ctx, w.pool, f.Width, 0, nil, exec.JoinInner,
		exec.JoinSide{Rows: rows}, exec.JoinSide{Rows: j.BuildRows}, probeKeys, buildKeys, residual, buildSchema.Len())
	if err != nil {
		return nil, nil, err
	}
	outSeqs := make([]int64, len(ords))
	for i, o := range ords {
		outSeqs[i] = seqs[o]
	}
	return out, outSeqs, nil
}

// parsePredicate round-trips a rendered predicate back into a bound
// expression ("" = none) — the same SQL-text seam shipped federated
// statements use.
func parsePredicate(sql string, schema *value.Schema) (expr.Expr, error) {
	if sql == "" {
		return nil, nil
	}
	st, err := sqlparse.Parse("SELECT 1 WHERE " + sql)
	if err != nil {
		return nil, faults.Fatal(fmt.Errorf("fragment predicate %q: %w", sql, err))
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok || sel.Where == nil {
		return nil, faults.Fatal(fmt.Errorf("fragment predicate %q did not parse", sql))
	}
	if err := expr.Bind(sel.Where, schema); err != nil {
		return nil, faults.Fatal(fmt.Errorf("fragment predicate %q: %w", sql, err))
	}
	return sel.Where, nil
}

// parseExprList round-trips rendered expressions into bound expressions.
func parseExprList(sqls []string, schema *value.Schema) ([]expr.Expr, error) {
	if len(sqls) == 0 {
		return nil, nil
	}
	st, err := sqlparse.Parse("SELECT " + strings.Join(sqls, ", "))
	if err != nil {
		return nil, faults.Fatal(fmt.Errorf("fragment expressions %v: %w", sqls, err))
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok || len(sel.Items) != len(sqls) {
		return nil, faults.Fatal(fmt.Errorf("fragment expressions %v did not parse", sqls))
	}
	out := make([]expr.Expr, len(sqls))
	for i, item := range sel.Items {
		if err := expr.Bind(item.Expr, schema); err != nil {
			return nil, faults.Fatal(fmt.Errorf("fragment expression %q: %w", sqls[i], err))
		}
		out[i] = item.Expr
	}
	return out, nil
}
