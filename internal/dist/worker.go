package dist

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"hana/internal/colstore"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

// Worker is one shard node: it holds sequence-tagged copies of the shards
// it owns (primary or replica), executes fragments over them with its own
// morsel pool, and participates in the engine's two-phase commit so
// cross-shard writes land atomically on every replica.
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
	// refused holds, per transaction, a write a replica refused: the
	// worker votes no on it.
	// hana:guardedby mu
	refused map[uint64]error
}

// workerTable is one table's shard replicas plus the schema fragments bind
// against.
type workerTable struct {
	schema *value.Schema
	shards map[int]*replica
}

// replica is a worker's copy of one shard: a column-store table — delta,
// main and auto-merge, what an engine hot partition is — and, aligned with
// its row positions, each row's global scan sequence (its row id in the
// engine's partition, in 32 bits) and its versions, stamped by the same
// two-phase commit as the engine's partitions. Writes arrive in sequence
// order, so the table only appends and the sequences ascend. Readers work
// on a copy of the struct taken under the worker's lock: appends land past
// it.
type replica struct {
	tab  *colstore.Table
	seqs []uint32
	vers *txn.RowVersions
}

// NewWorker creates a worker with its own morsel pool of the given width
// (0 = GOMAXPROCS). The injector drives the worker's fault sites
// (dist.worker.<id>.exec, .chunk, .prepare, .commit); nil disables them.
func NewWorker(id, parallelism int, inj *faults.Injector) *Worker {
	return &Worker{
		id:      id,
		pool:    exec.NewPool(parallelism),
		inj:     inj,
		tables:  map[string]*workerTable{},
		refused: map[uint64]error{},
	}
}

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
	w.tables[strings.ToUpper(table)] = &workerTable{schema: schema, shards: map[int]*replica{}}
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
	if wt == nil || wt.shards[shard] == nil {
		return 0
	}
	return wt.shards[shard].vers.LiveCount(snapshot)
}

// getShardLocked resolves a table's shard replica, creating it on first
// write.
func (w *Worker) getShardLocked(table string, shard int) (*replica, error) {
	wt := w.tables[strings.ToUpper(table)]
	if wt == nil {
		return nil, faults.Fatal(fmt.Errorf("worker %d: table %s not registered", w.id, table))
	}
	r := wt.shards[shard]
	if r == nil {
		r = &replica{tab: colstore.NewTable(wt.schema), vers: txn.NewRowVersions()}
		wt.shards[shard] = r
	}
	return r, nil
}

// append lands a row at the end of the replica. A sequence not above the
// last one would break the scan's sequence order: the replica refuses it.
func (r *replica) append(seq int64, row value.Row) error {
	if seq < 0 || seq > math.MaxUint32 {
		return faults.Fatal(fmt.Errorf("sequence %d is outside a replica's 32 bits", seq))
	}
	if n := len(r.seqs); n > 0 && uint32(seq) <= r.seqs[n-1] {
		return faults.Fatal(fmt.Errorf("sequence %d is not above the replica's last, %d", seq, r.seqs[n-1]))
	}
	if _, err := r.tab.Append(row); err != nil {
		return faults.Fatal(err)
	}
	r.seqs = append(r.seqs, uint32(seq))
	return nil
}

// find locates a sequence's position in the replica.
func (r *replica) find(seq int64) (int, bool) {
	if seq < 0 || seq > math.MaxUint32 {
		return 0, false
	}
	return slices.BinarySearch(r.seqs, uint32(seq))
}

// Load appends rows with their version stamps (initial seeding, BulkLoad
// mirroring, recovery and schema-change reseeds): seqs, rows and vers are
// parallel. Rows whose sequence the replica holds are a re-delivery and
// keep the first.
func (w *Worker) Load(table string, shard int, seqs []int64, rows []value.Row, vers txn.VersionSnapshot) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return w.downErr()
	}
	r, err := w.getShardLocked(table, shard)
	if err != nil {
		return err
	}
	r.tab.Grow(len(rows))
	r.seqs = slices.Grow(r.seqs, len(rows))
	var add txn.VersionSnapshot
	for i, row := range rows {
		if _, held := r.find(seqs[i]); held {
			continue
		}
		if err = r.append(seqs[i], row); err != nil {
			break
		}
		add.Ins, add.Del = append(add.Ins, vers.Ins[i]), append(add.Del, vers.Del[i])
	}
	r.vers.Extend(add)
	return err
}

// LoadCommitted is Load of rows committed at cid.
func (w *Worker) LoadCommitted(table string, shard int, seqs []int64, rows []value.Row, cid uint64) error {
	return w.Load(table, shard, seqs, rows, txn.Committed(len(rows), cid))
}

// --- two-phase commit participant ---

// Name implements txn.Participant.
func (w *Worker) Name() string { return fmt.Sprintf("dist:worker:%d", w.id) }

// Insert appends a row written by transaction tid to a shard replica,
// invisible to every snapshot until the transaction commits. A write the
// replica refuses makes the worker vote no on tid.
func (w *Worker) Insert(tid uint64, table string, shard int, seq int64, row value.Row) {
	w.write(tid, table, shard, func(r *replica) error {
		if err := r.append(seq, row); err != nil {
			return err
		}
		r.vers.Insert(len(r.seqs)-1, tid)
		return nil
	})
}

// Delete stamps the row of a sequence deleted by transaction tid.
func (w *Worker) Delete(tid uint64, table string, shard int, seq int64) {
	w.write(tid, table, shard, func(r *replica) error {
		at, ok := r.find(seq)
		if !ok {
			return faults.Fatal(fmt.Errorf("delete of unknown sequence %d", seq))
		}
		r.vers.Delete(at, tid)
		return nil
	})
}

// write applies one write of tid to a shard replica, noting a refusal.
func (w *Worker) write(tid uint64, table string, shard int, apply func(*replica) error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	r, err := w.getShardLocked(table, shard)
	if err == nil {
		err = apply(r)
	}
	if err != nil && w.refused[tid] == nil {
		w.refused[tid] = fmt.Errorf("worker %d table %s shard %d: %w", w.id, table, shard, err)
	}
}

// Prepare implements txn.Participant: the worker votes yes when it is alive
// and its replicas took every write of the transaction.
func (w *Worker) Prepare(tid uint64) error {
	if !w.Alive() {
		return w.downErr()
	}
	if err := w.inj.Check(w.site("prepare")); err != nil {
		return err
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.refused[tid]
}

// Commit implements txn.Participant: the transaction's rows become visible
// at the commit ID on every shard copy this worker holds. It is idempotent.
func (w *Worker) Commit(tid, cid uint64) error {
	if err := w.inj.Check(w.site("commit")); err != nil {
		return err
	}
	w.resolve(tid, func(v *txn.RowVersions) { v.CommitTID(tid, cid) })
	return nil
}

// Abort implements txn.Participant: the transaction's inserts become
// invisible for good and its deletes are reverted. It is idempotent.
func (w *Worker) Abort(tid uint64) error {
	w.resolve(tid, func(v *txn.RowVersions) { v.AbortTID(tid) })
	return nil
}

// resolve stamps tid's outcome on every replica and forgets its refusal.
func (w *Worker) resolve(tid uint64, stamp func(*txn.RowVersions)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.refused, tid)
	for _, wt := range w.tables {
		for _, r := range wt.shards {
			stamp(r.vers)
		}
	}
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
	// The scan works on a copy of the replica: the rows up to its length
	// as it stands. Later writes append past it, and a rebuild leaves it
	// behind.
	w.mu.RLock()
	wt := w.tables[strings.ToUpper(f.Table)]
	var rep replica
	if wt != nil && wt.shards[f.Shard] != nil {
		rep = *wt.shards[f.Shard]
	}
	w.mu.RUnlock()
	if wt == nil {
		return faults.Fatal(fmt.Errorf("worker %d: table %s not registered", w.id, f.Table))
	}
	schema := wt.schema.Qualify(f.Binding)
	if len(f.Needed) != 0 && len(f.Needed) != schema.Len() {
		return faults.Fatal(fmt.Errorf("worker %d: fragment marks %d columns, table %s has %d", w.id, len(f.Needed), f.Table, schema.Len()))
	}
	pred, err := parseExpr(f.Where, schema)
	if err != nil {
		return err
	}

	// The scan: fixed morsels of the replica's positions, so the surviving
	// sequence stream is identical at any pool width. Each morsel's chunk
	// carries its surviving batch: a gather fragment ships it as it is,
	// aggregates and joins run over it here.
	size := exec.DefaultMorselSize
	nm := (len(rep.seqs) + size - 1) / size
	chunks := make([]*Chunk, nm)
	_, err = w.pool.Run(ctx, nm, f.Width, func(_ context.Context, m int) error {
		ch, err := w.scanMorsel(&rep, m*size, min((m+1)*size, len(rep.seqs)), f, schema, pred)
		chunks[m] = ch
		return err
	})
	if err != nil {
		return err
	}

	switch {
	case f.Agg != nil || f.Join != nil:
		// Aggregate and join fragments hand the surviving batches, in
		// sequence order, to the node-local executor; seqs maps an ordinal in
		// that live-row stream back to the row's sequence.
		out := &Chunk{Shard: f.Shard, Worker: w.id}
		var seqs []int64
		kept := make([]*value.Batch, 0, nm)
		for _, ch := range chunks {
			out.Scanned += ch.Scanned
			if len(ch.Seqs) > 0 {
				seqs = append(seqs, ch.Seqs...)
				kept = append(kept, ch.Batch)
			}
		}
		chunks = []*Chunk{out}
		if f.Agg != nil {
			out.Partial, err = w.runAggregate(ctx, f, schema, kept, seqs)
		} else {
			chunks, err = w.runJoin(ctx, f, schema, kept, seqs, chunks)
		}
		if err != nil {
			return err
		}
	case nm == 0:
		// Empty shard still reports its (zero) scan so streams stay uniform.
		chunks = []*Chunk{{Shard: f.Shard, Worker: w.id}}
	}
	for _, ch := range chunks {
		if err := w.emit(ch, sink); err != nil {
			return err
		}
	}
	return nil
}

// scanMorsel is the engine's table scan on a replica: decode positions
// [lo, hi) into a batch, select the rows committed at the fragment's
// snapshot, refine the selection with the shipped predicate's kernels. The
// chunk it returns carries that batch, the survivors' sequences and the
// visible count.
func (w *Worker) scanMorsel(r *replica, lo, hi int, f *Fragment, schema *value.Schema, pred expr.Expr) (*Chunk, error) {
	b := r.tab.ReadBatch(lo, hi, f.Needed)
	b.Schema = schema
	b.Sel = r.vers.VisibleIn(lo, hi-lo, nil, f.Snapshot, 0)
	ch := &Chunk{Shard: f.Shard, Worker: w.id, Scanned: int64(len(b.Sel)), Batch: b}
	if err := expr.SelectBatch(pred, b); err != nil {
		return nil, err
	}
	ch.Seqs = make([]int64, b.Len())
	for k := range ch.Seqs {
		ch.Seqs[k] = int64(r.seqs[lo+b.RowIndex(k)])
	}
	return ch, nil
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

// runAggregate runs exec's morsel-parallel aggregate over the surviving
// batches and returns its unfinalised group table, each group's First
// mapped from the row's ordinal to its global scan sequence.
func (w *Worker) runAggregate(ctx context.Context, f *Fragment, schema *value.Schema, batches []*value.Batch, seqs []int64) (*exec.AggPartial, error) {
	groupBy, err := parseExprList(f.Agg.GroupBy, schema)
	if err != nil {
		return nil, err
	}
	aggs := make([]exec.AggSpec, len(f.Agg.Aggs))
	for i, a := range f.Agg.Aggs {
		arg, err := parseExpr(a.Arg, schema) // "" = COUNT(*)
		if err != nil {
			return nil, err
		}
		aggs[i] = exec.AggSpec{Func: a.Func, Arg: arg, Distinct: a.Distinct}
	}
	agg := &exec.ParallelHashAggregate{In: exec.Rel{Schema: schema, Batches: batches}, GroupBy: groupBy, Aggs: aggs, Pool: w.pool, Ctx: ctx, Width: f.Width}
	p, err := agg.Partial()
	if err != nil {
		return nil, err
	}
	for _, g := range p.Groups {
		g.First = seqs[g.First]
	}
	return p, nil
}

// runJoin probes the surviving shard rows against the broadcast build side
// with exec's hash join — the serial hash join's semantics: NULL keys never
// match, matches emitted in build-input order, residual evaluated per
// match. Each output batch (one per probe morsel) ships as a chunk with its
// probe rows' sequences, appended to chunks, so the coordinator's merge
// restores probe-input order globally.
func (w *Worker) runJoin(ctx context.Context, f *Fragment, schema *value.Schema, batches []*value.Batch, seqs []int64, chunks []*Chunk) ([]*Chunk, error) {
	j := f.Join
	buildSchema := &value.Schema{Cols: j.BuildCols}
	probeKeys, err := parseExprList(j.ProbeKeys, schema)
	if err != nil {
		return nil, err
	}
	buildKeys, err := parseExprList(j.BuildKeys, buildSchema)
	if err != nil {
		return nil, err
	}
	residual, err := parseExpr(j.Residual, schema.Concat(buildSchema))
	if err != nil {
		return nil, err
	}
	out, ords, err := exec.HashJoin(ctx, w.pool, f.Width, 0, nil, exec.JoinInner,
		exec.Rel{Schema: schema, Batches: batches}, exec.RowRel(buildSchema, j.BuildRows, nil), probeKeys, buildKeys, residual)
	if err != nil {
		return nil, err
	}
	for _, b := range out.Batches {
		ch := &Chunk{Shard: f.Shard, Worker: w.id, Batch: b, Seqs: make([]int64, b.N)}
		for k, o := range ords[:b.N] {
			ch.Seqs[k] = seqs[o]
		}
		ords = ords[b.N:]
		chunks = append(chunks, ch)
	}
	return chunks, nil
}

// parseExpr round-trips one rendered expression — a predicate, an aggregate
// argument — back into a bound expression ("" = none): the same SQL-text
// seam shipped federated statements use.
func parseExpr(sql string, schema *value.Schema) (expr.Expr, error) {
	if sql == "" {
		return nil, nil
	}
	es, err := parseExprList([]string{sql}, schema)
	if err != nil {
		return nil, err
	}
	return es[0], nil
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
