package dist

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"hana/internal/colstore"
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

// workerTable is one table's shard replicas plus the schema fragments bind
// against.
type workerTable struct {
	schema *value.Schema
	shards map[int]*replica
}

// run is a column-store table — delta, main and auto-merge, what an engine
// hot partition is — and, aligned with its row positions, each row's global
// scan sequence and the commit IDs that inserted and (0 = live) deleted it.
// Workers hold committed state only, so visibility is two comparisons
// against a snapshot. The vectors only grow, except that del is stamped in
// place: readers work on a copy of the struct taken under the worker's lock
// and read del under it.
type run struct {
	tab  *colstore.Table
	seqs []int64
	ins  []uint64
	del  []uint64
}

// replica is a worker's copy of one shard: a run in sequence order that
// commits append to, and — a column store has no middle insert — a late run
// of the rows that committed below its last sequence at the time (two
// transactions finishing in the reverse of their sequence order), in commit
// order. The scan reads the late rows in between (spans); past lateCap of
// them the two runs are folded into one.
type replica struct {
	run
	late run
}

// lateCap bounds what a scan pays for out-of-order commits (up to two extra
// morsels a row) against how often a fold copies the shard.
const lateCap = 512

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
	r := wt.shards[shard]
	return len(r.visible(0, len(r.seqs), snapshot)) + len(r.late.visible(0, len(r.late.seqs), snapshot))
}

// visible selects, as offsets from lo, the positions in [lo, hi) whose rows
// are committed and not deleted at the snapshot. Caller holds the worker's
// lock.
func (r *run) visible(lo, hi int, snapshot uint64) []int32 {
	sel := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if r.ins[i] <= snapshot && (r.del[i] == 0 || r.del[i] > snapshot) {
			sel = append(sel, int32(i-lo))
		}
	}
	return sel
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
		r = &replica{run: run{tab: colstore.NewTable(wt.schema)}}
		wt.shards[shard] = r
	}
	return r, nil
}

// find locates a sequence in the replica: the run holding it and its
// position there.
func (r *replica) find(seq int64) (*run, int, bool) {
	if at, ok := slices.BinarySearch(r.seqs, seq); ok {
		return &r.run, at, true
	}
	at := slices.Index(r.late.seqs, seq)
	return &r.late, at, at >= 0
}

// append lands a row at the end of the run.
func (r *run) append(seq int64, ins, del uint64, row value.Row) error {
	if _, err := r.tab.Append(row); err != nil {
		return err
	}
	r.seqs, r.ins, r.del = append(r.seqs, seq), append(r.ins, ins), append(r.del, del)
	return nil
}

// fold rebuilds the main run with the late rows merged in. Readers keep the
// tables and vectors they copied.
func (r *replica) fold() error {
	out := run{tab: colstore.NewTable(r.tab.Schema())}
	for _, sp := range r.spans(len(r.seqs)) {
		for at := sp.lo; at < sp.hi; at++ {
			row, err := sp.in.tab.Get(at)
			if err == nil {
				err = out.append(sp.in.seqs[at], sp.in.ins[at], sp.in.del[at], row)
			}
			if err != nil {
				return err
			}
		}
	}
	r.run, r.late = out, run{}
	return nil
}

// applyInsert lands a committed row. Sequences almost always arrive
// ascending and append; a sequence already present is a re-delivery (2PC
// retry) and keeps the first apply; one below the last joins the late run.
func (r *replica) applyInsert(seq int64, cid uint64, row value.Row) error {
	if n := len(r.seqs); n == 0 || seq > r.seqs[n-1] {
		return r.append(seq, cid, 0, row)
	}
	if _, _, found := r.find(seq); found {
		return nil
	}
	if r.late.tab == nil {
		r.late.tab = colstore.NewTable(r.tab.Schema())
	}
	err := r.late.append(seq, cid, 0, row)
	if err == nil && len(r.late.seqs) > lateCap {
		err = r.fold()
	}
	return err
}

func (r *replica) applyDelete(seq int64, cid uint64) error {
	in, i, found := r.find(seq)
	if !found {
		return fmt.Errorf("delete of unknown sequence %d", seq)
	}
	if in.del[i] == 0 {
		in.del[i] = cid
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
	r, err := w.getShardLocked(table, shard)
	if err != nil {
		return err
	}
	for i, row := range rows {
		if err := r.applyInsert(seqs[i], cid, row); err != nil {
			return err
		}
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
		r, err := w.getShardLocked(op.table, op.shard)
		if err != nil {
			return err
		}
		if op.del {
			err = r.applyDelete(op.seq, cid)
		} else {
			err = r.applyInsert(op.seq, cid, op.row)
		}
		if err != nil {
			return fmt.Errorf("worker %d table %s shard %d: %w", w.id, op.table, op.shard, err)
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
	// The scan works on a copy of the replica — the table pointers and the
	// vectors as they stand. Later commits append past the copy or, on a
	// rebuild, leave it behind; neither is visible at a snapshot already
	// taken.
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

	// The scan: one morsel per span, whose boundaries depend only on the
	// replica's contents, so the surviving sequence stream is identical at any
	// pool width. Each morsel's chunk carries its surviving batch: a gather
	// fragment ships it as it is, aggregates and joins run over it here.
	spans := rep.spans(exec.DefaultMorselSize)
	nm := len(spans)
	chunks := make([]*Chunk, nm)
	_, err = w.pool.Run(ctx, nm, f.Width, func(_ context.Context, m int) error {
		ch, err := w.scanMorsel(spans[m], f, schema, pred)
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
		if f.Agg != nil {
			out.Partial, err = w.runAggregate(ctx, f, schema, kept, seqs)
		} else {
			out.Rows, out.Seqs, err = w.runJoin(ctx, f, schema, kept, seqs)
		}
		if err != nil {
			return err
		}
		chunks = []*Chunk{out}
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

// span is one morsel of a replica's scan: positions [lo, hi) of one of its
// runs.
type span struct {
	in     *run
	lo, hi int
}

// spans cuts the replica into morsels in sequence order: ranges of up to
// size positions of the main run, ended early wherever late rows — every one
// below the main run's last sequence — fall in between; late rows adjacent
// in both sequence and position share a morsel.
func (r *replica) spans(size int) []span {
	var out []span
	late := make([]int, len(r.late.seqs)) // its positions, by sequence
	for i := range late {
		late[i] = i
	}
	slices.SortFunc(late, func(a, b int) int { return cmp.Compare(r.late.seqs[a], r.late.seqs[b]) })
	for lo := 0; lo < len(r.seqs); {
		for len(late) > 0 && r.late.seqs[late[0]] < r.seqs[lo] {
			k := 1
			for k < len(late) && late[k] == late[0]+k && r.late.seqs[late[k]] < r.seqs[lo] {
				k++
			}
			out = append(out, span{&r.late, late[0], late[0] + k})
			late = late[k:]
		}
		hi := min(lo+size, len(r.seqs))
		if len(late) > 0 {
			at, _ := slices.BinarySearch(r.seqs[lo:hi], r.late.seqs[late[0]])
			hi = lo + at
		}
		out = append(out, span{&r.run, lo, hi})
		lo = hi
	}
	return out
}

// scanMorsel is the engine's table scan on a replica: decode the span's
// positions into a batch, select the rows committed at the fragment's
// snapshot, refine the selection with the shipped predicate's kernels. The
// chunk it returns carries that batch, the survivors' sequences and the
// visible count.
func (w *Worker) scanMorsel(sp span, f *Fragment, schema *value.Schema, pred expr.Expr) (*Chunk, error) {
	b := sp.in.tab.ReadBatch(sp.lo, sp.hi, f.Needed)
	b.Schema = schema
	w.mu.RLock()
	b.Sel = sp.in.visible(sp.lo, sp.hi, f.Snapshot)
	w.mu.RUnlock()
	ch := &Chunk{Shard: f.Shard, Worker: w.id, Scanned: int64(len(b.Sel)), Batch: b}
	if err := expr.SelectBatch(pred, b); err != nil {
		return nil, err
	}
	ch.Seqs = make([]int64, b.Len())
	for k := range ch.Seqs {
		ch.Seqs[k] = sp.in.seqs[sp.lo+b.RowIndex(k)]
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
// with exec's parallel hash join — the serial hash join's semantics: NULL
// keys never match, matches emitted in build-input order, residual evaluated
// on the combined row. Only probe rows that reach the output are boxed;
// each carries its probe row's sequence, so the coordinator merge restores
// probe-input order globally.
func (w *Worker) runJoin(ctx context.Context, f *Fragment, schema *value.Schema, batches []*value.Batch, seqs []int64) ([]value.Row, []int64, error) {
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
	residual, err := parseExpr(j.Residual, schema.Concat(buildSchema))
	if err != nil {
		return nil, nil, err
	}
	out, ords, err := exec.HashJoinProbeOrdinals(ctx, w.pool, f.Width, 0, nil, exec.JoinInner,
		exec.Rel{Schema: schema, Batches: batches}, exec.Rel{Schema: buildSchema, Rows: j.BuildRows}, probeKeys, buildKeys, residual, buildSchema.Len())
	if err != nil {
		return nil, nil, err
	}
	outSeqs := make([]int64, len(ords))
	for i, o := range ords {
		outSeqs[i] = seqs[o]
	}
	return out, outSeqs, nil
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
