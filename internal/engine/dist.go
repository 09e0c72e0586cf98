package engine

import (
	"fmt"
	"strings"

	"hana/internal/catalog"
	"hana/internal/dist"
	"hana/internal/fed"
	"hana/internal/txn"
	"hana/internal/value"
)

// distRuntime is the engine's scale-out attachment: the worker fleet holding
// hash-sharded replicas of eligible hot tables, the transport to reach them,
// and the coordinator that fans fragments out and merges the streams. The
// engine node stays authoritative — WAL and savepoints are untouched;
// workers mirror every write at statement time, and the same two-phase
// commit that stamps the engine's partitions stamps their versions.
type distRuntime struct {
	topo      dist.Topology
	transport *dist.Local
	coord     *dist.Coordinator
}

// initDist builds the worker fleet when the configured topology asks for
// one. Workers share the engine's fault injector (sites dist.worker.<id>.*)
// and get per-worker circuit breakers (dist.worker.<id>) through the
// guarded caller.
func (e *Engine) initDist() {
	topo := e.cfg.Topology
	if !topo.Enabled() {
		return
	}
	workers := make([]*dist.Worker, topo.Shards)
	for i := range workers {
		workers[i] = dist.NewWorker(i, e.cfg.Parallelism, e.cfg.Faults)
	}
	tr := dist.NewLocal(workers)
	caller := &fed.GuardedCall{
		Health:  e.health,
		Retry:   e.cfg.Retry,
		Faults:  e.cfg.Faults,
		Span:    "fragment",
		OnRetry: func() { e.Metrics.DistRetries.Inc() },
	}
	e.dist = &distRuntime{
		topo:      topo,
		transport: tr,
		coord:     &dist.Coordinator{Topo: topo, Transport: tr, Caller: caller},
	}
}

// Topology reports the engine's distributed topology (zero value when
// single-node).
func (e *Engine) Topology() dist.Topology {
	if e.dist == nil {
		return dist.Topology{}
	}
	return e.dist.topo
}

// DistTransport exposes the in-process transport for chaos tests (killing
// and reviving workers) and wire-conformance runs. Nil when single-node.
func (e *Engine) DistTransport() *dist.Local {
	if e.dist == nil {
		return nil
	}
	return e.dist.transport
}

// distFor returns the runtime when the table is shardable: exactly one hot
// (in-memory) partition and a fixed schema. Hybrid/extended tables keep
// their federated strategies; flexible tables mutate their schema on
// insert.
func (e *Engine) distFor(t *storedTable) *distRuntime {
	d := e.dist
	if d == nil || t == nil {
		return nil
	}
	if t.meta.Flexible || len(t.parts) != 1 {
		return nil
	}
	p := t.parts[0]
	if p.cold || p.ext != nil {
		return nil
	}
	return d
}

// distKey is the worker-side table key — uppercase, matching the engine's
// catalog lookup normalization.
func distKey(name string) string { return strings.ToUpper(name) }

// shardOrdOf picks the hash-sharding column: the primary key when declared,
// the first column otherwise.
func shardOrdOf(meta *catalog.TableMeta) int {
	if meta.PrimaryKey >= 0 {
		return meta.PrimaryKey
	}
	return 0
}

// distRegister installs (or refreshes) a table's schema on every worker.
// Called on CREATE TABLE and after schema-changing ALTERs; existing shard
// data on the workers is dropped, so callers reseed when rows exist.
func (e *Engine) distRegister(t *storedTable) {
	d := e.distFor(t)
	if d == nil {
		return
	}
	for i := 0; i < d.transport.Workers(); i++ {
		d.transport.Worker(i).Register(distKey(t.meta.Name), t.meta.Schema.Clone())
	}
}

// distDrop removes a table from every worker.
func (e *Engine) distDrop(name string) {
	d := e.dist
	if d == nil {
		return
	}
	for i := 0; i < d.transport.Workers(); i++ {
		d.transport.Worker(i).Drop(distKey(name))
	}
}

// distReseed re-registers a table on the fleet and re-loads every physical
// row of its partition with the row's version stamps — the recovery and
// schema-change path. A transaction in flight across the reseed keeps its
// stamps on the workers, so it commits or aborts there as on the engine.
func (e *Engine) distReseed(t *storedTable) error {
	if e.distFor(t) == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return e.distReseedLocked(t)
}

// distReseedLocked is distReseed with t.mu already held (ALTER TABLE path).
func (e *Engine) distReseedLocked(t *storedTable) error {
	if e.distFor(t) == nil {
		return nil
	}
	e.distRegister(t)
	p := t.parts[0]
	all := p.vers.Export()
	var ids []int
	var rows []value.Row
	var vers txn.VersionSnapshot
	collect := func(id int, row value.Row) bool {
		if id < len(all.Ins) {
			ids, rows = append(ids, id), append(rows, row.Clone())
			vers.Ins, vers.Del = append(vers.Ins, all.Ins[id]), append(vers.Del, all.Del[id])
		}
		return true
	}
	if err := p.scan(collect); err != nil {
		return err
	}
	return e.distMirrorLoad(t, ids, rows, vers)
}

// distReseedAll reseeds every shardable table — the post-recovery hook.
func (e *Engine) distReseedAll() error {
	if e.dist == nil {
		return nil
	}
	e.mu.RLock()
	tables := e.sortedTables()
	e.mu.RUnlock()
	for _, t := range tables {
		if err := e.distReseed(t); err != nil {
			return err
		}
	}
	return nil
}

// distMirrorInsert writes a transactional insert to every replica owner of
// the row's shard and enlists the workers in the transaction's two-phase
// commit, so the replicas flip visible at exactly the engine's commit ID.
// Called under t.mu from appendLocked, so each replica receives its rows in
// row-id order; the row id is the global scan sequence.
func (e *Engine) distMirrorInsert(tx *txn.Txn, t *storedTable, id int, row value.Row) {
	d := e.distFor(t)
	if d == nil {
		return
	}
	shard := dist.ShardOf(row[shardOrdOf(t.meta)], d.topo.Shards)
	r := row.Clone()
	for _, owner := range d.topo.Owners(shard) {
		w := d.transport.Worker(owner)
		w.Insert(tx.TID, distKey(t.meta.Name), shard, int64(id), r)
		tx.Enlist(w)
	}
}

// distMirrorDelete stamps a transactional delete on the replicas. The
// deleted row is read back by id (under t.mu) to route the delete to the
// shard's owners.
func (e *Engine) distMirrorDelete(tx *txn.Txn, t *storedTable, p *partition, id int) {
	d := e.distFor(t)
	if d == nil {
		return
	}
	var row value.Row
	var err error
	switch {
	case p.hot != nil:
		row, err = p.hot.Get(id)
	case p.row != nil:
		row, err = p.row.Get(id)
	}
	if err != nil || row == nil {
		return
	}
	shard := dist.ShardOf(row[shardOrdOf(t.meta)], d.topo.Shards)
	for _, owner := range d.topo.Owners(shard) {
		w := d.transport.Worker(owner)
		w.Delete(tx.TID, distKey(t.meta.Name), shard, int64(id))
		tx.Enlist(w)
	}
}

// distMirrorLoad loads rows with their version stamps — a BulkLoad batch,
// a reseed — to the replicas directly: it routes each row to its shard (ids
// are the rows' global scan sequences, ascending) and loads every owner.
// Workers copy the values into their column stores, so owners share the
// rows. Called under t.mu.
func (e *Engine) distMirrorLoad(t *storedTable, ids []int, rows []value.Row, vers txn.VersionSnapshot) error {
	d := e.distFor(t)
	if d == nil {
		return nil
	}
	ord := shardOrdOf(t.meta)
	seqs := make([][]int64, d.topo.Shards)
	placed := make([][]value.Row, d.topo.Shards)
	stamps := make([]txn.VersionSnapshot, d.topo.Shards)
	for i, row := range rows {
		s := dist.ShardOf(row[ord], d.topo.Shards)
		seqs[s], placed[s] = append(seqs[s], int64(ids[i])), append(placed[s], row)
		stamps[s].Ins, stamps[s].Del = append(stamps[s].Ins, vers.Ins[i]), append(stamps[s].Del, vers.Del[i])
	}
	for s := range placed {
		if len(placed[s]) == 0 {
			continue
		}
		for _, owner := range d.topo.Owners(s) {
			if err := d.transport.Worker(owner).Load(distKey(t.meta.Name), s, seqs[s], placed[s], stamps[s]); err != nil {
				return fmt.Errorf("loading %s shard %d on worker %d: %w", t.meta.Name, s, owner, err)
			}
		}
	}
	return nil
}

// DistShardCounts reports, per worker, the live row count held for a table
// at the current snapshot — the data-placement view used by tests and
// M_DIST_SHARDS.
func (e *Engine) DistShardCounts(table string) (map[int]int, error) {
	if e.dist == nil {
		return nil, fmt.Errorf("distributed execution is not enabled")
	}
	t, err := e.table(table)
	if err != nil {
		return nil, err
	}
	snap := e.mgr.LastCID()
	out := map[int]int{}
	for i := 0; i < e.dist.transport.Workers(); i++ {
		w := e.dist.transport.Worker(i)
		n := 0
		for s := 0; s < e.dist.topo.Shards; s++ {
			n += w.ShardRowCount(distKey(t.meta.Name), s, snap)
		}
		out[i] = n
	}
	return out, nil
}
