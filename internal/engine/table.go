// Package engine implements the platform's core database engine: catalog-
// backed storage over the in-memory column/row stores and the disk-based
// extended storage, MVCC transactions with two-phase commit across engines,
// a cost-based planner with the paper's federated execution strategies
// (remote scan, semijoin, table relocation, union plan, and SDA query
// shipping with remote materialization), and hybrid-table aging.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"hana/internal/catalog"
	"hana/internal/colstore"
	"hana/internal/diskstore"
	"hana/internal/rowstore"
	"hana/internal/txn"
	"hana/internal/value"
)

// partition is one physical fragment of a stored table. Exactly one of
// hot/row/ext is set.
type partition struct {
	meta catalog.PartitionMeta
	cold bool
	idx  int // position in storedTable.parts; stable across restarts

	hot  *colstore.Table  // in-memory columnar
	row  *rowstore.Table  // in-memory row store
	ext  *diskstore.Table // extended storage (disk)
	vers *txn.RowVersions
}

// numRows returns raw stored rows (MVCC-unaware).
func (p *partition) numRows() int {
	switch {
	case p.hot != nil:
		return p.hot.NumRows()
	case p.row != nil:
		return p.row.NumRows()
	case p.ext != nil:
		// Include tombstoned rows: versioning handles visibility, ids are stable.
		return int(p.ext.TotalRows())
	}
	return 0
}

// storedTable is the runtime object for one catalog table: one partition
// for plain tables, several for hybrid tables.
type storedTable struct {
	mu      sync.Mutex
	eng     *Engine // owning engine (redo logging); set by buildStoredTable
	meta    *catalog.TableMeta
	parts   []*partition
	part2pc *extParticipant // shared 2PC participant for the cold partitions
}

// firstCold returns the table's first extended-storage partition, nil when
// it has none. It is where aging puts flagged rows whatever their key.
func (t *storedTable) firstCold() *partition {
	for _, p := range t.parts {
		if p.cold {
			return p
		}
	}
	return nil
}

// partitionFor routes a row to its partition by the range-partitioning
// column; tables without partitions route to the single partition.
func (t *storedTable) partitionFor(row value.Row) (*partition, error) {
	if len(t.parts) == 1 {
		return t.parts[0], nil
	}
	ord := t.meta.Schema.Find(t.meta.PartitionBy)
	if ord < 0 {
		return nil, fmt.Errorf("partition column %s not found", t.meta.PartitionBy)
	}
	v := row[ord]
	var others *partition
	for _, p := range t.parts {
		if p.meta.Others {
			others = p
			continue
		}
		if !v.IsNull() && value.Compare(v, p.meta.UpperBound) < 0 {
			return p, nil
		}
	}
	if others != nil {
		return others, nil
	}
	return nil, fmt.Errorf("no partition accepts value %v for column %s", v, t.meta.PartitionBy)
}

// insertRow appends a row to the right partition under the transaction.
// Hot/row partitions apply immediately with MVCC stamps and undo; cold
// partitions buffer in the 2PC participant until prepare.
func (t *storedTable) insertRow(tx *txn.Txn, row value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.partitionFor(row)
	if err != nil {
		return err
	}
	switch {
	case p.hot != nil, p.row != nil:
		// Write-ahead: the redo record and the store append are atomic under
		// t.mu, so a savepoint either sees both or neither. An append that
		// fails after the record is logged (duplicate primary key) fails
		// identically during replay and is skipped there, keeping row ids
		// aligned.
		if err := t.eng.logRedoRow(tx.TID, redoIns, p.idx, p.numRows(), t.meta.Name, row); err != nil {
			return err
		}
		var id int
		if p.hot != nil {
			id, err = p.hot.Append(row)
		} else {
			id, err = p.row.Append(row)
		}
		if err != nil {
			return err
		}
		p.vers.Insert(id, tx.TID)
		tid := tx.TID
		vers := p.vers
		tx.OnAbort(func() { vers.AbortTID(tid) })
		t.stampOnCommit(tx, p)
		t.eng.distMirrorInsert(tx, t, id, row)
	case p.ext != nil:
		// Extended storage participates in the distributed transaction; the
		// redo record is logged at prepare time, when the row id is known.
		t.part2pc.bufferInsert(tx.TID, p, row)
		tx.Enlist(t.part2pc)
	}
	return nil
}

// deleteRow stamps a visible row deleted under the transaction. It takes
// t.mu so the redo record and the version stamp are one atomic unit with
// respect to a concurrent savepoint.
func (t *storedTable) deleteRow(tx *txn.Txn, p *partition, rowID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p.ext != nil {
		if err := t.eng.logRedoRow(tx.TID, redoExtDel, p.idx, rowID, t.meta.Name, nil); err != nil {
			return err
		}
		if err := p.vers.Delete(rowID, tx.TID); err != nil {
			return err
		}
		t.part2pc.bufferDelete(tx.TID, p, rowID)
		tx.Enlist(t.part2pc)
		return nil
	}
	if err := t.eng.logRedoRow(tx.TID, redoDel, p.idx, rowID, t.meta.Name, nil); err != nil {
		return err
	}
	if err := p.vers.Delete(rowID, tx.TID); err != nil {
		return err
	}
	tid := tx.TID
	vers := p.vers
	tx.OnAbort(func() { vers.AbortTID(tid) })
	t.stampOnCommit(tx, p)
	t.eng.distMirrorDelete(tx, t, p, rowID)
	return nil
}

// stampOnCommit arranges for the partition's version stamps to be finalized
// at commit. The engine drives this through commit hooks collected on the
// transaction; hot-store stamping is idempotent per (tid, partition).
func (t *storedTable) stampOnCommit(tx *txn.Txn, p *partition) {
	// The engine-level commit wrapper calls CommitTID for every touched
	// partition; register it in the txn-scoped touch set. Keying by the
	// transaction pointer keeps independent engine instances separate.
	touchedMu.Lock()
	defer touchedMu.Unlock()
	set := touched[tx]
	if set == nil {
		set = map[*txn.RowVersions]bool{}
		touched[tx] = set
	}
	set[p.vers] = true
}

// touched tracks which version stores each in-flight transaction wrote, so
// the engine can stamp commit IDs on commit; cleaned on commit/abort.
var (
	touchedMu sync.Mutex
	touched   = map[*txn.Txn]map[*txn.RowVersions]bool{}
)

func commitStamps(tx *txn.Txn, cid uint64) {
	touchedMu.Lock()
	set := touched[tx]
	delete(touched, tx)
	touchedMu.Unlock()
	for v := range set {
		v.CommitTID(tx.TID, cid)
	}
}

func dropStamps(tx *txn.Txn) {
	touchedMu.Lock()
	delete(touched, tx)
	touchedMu.Unlock()
}

// extParticipant is the two-phase-commit participant wrapping a table's
// cold (extended storage) partitions: writes buffer until Prepare, become
// durable at Prepare, and are stamped visible at Commit — mirroring §3.1's
// integration of the IQ store into distributed HANA transactions.
type extParticipant struct {
	name  string
	eng   *Engine // redo logging at prepare time
	table string
	mu    sync.Mutex
	ops   map[uint64]*extOps
}

type extOps struct {
	inserts map[*partition][]value.Row
	deletes map[*partition][]int
	// prepared row ids per partition (for undo of inserts)
	preparedIDs map[*partition][]int
	prepared    bool
}

func newExtParticipant(e *Engine, table string) *extParticipant {
	return &extParticipant{name: "extstore:" + table, eng: e, table: table, ops: map[uint64]*extOps{}}
}

// Name implements txn.Participant.
func (x *extParticipant) Name() string { return x.name }

func (x *extParticipant) get(tid uint64) *extOps {
	o := x.ops[tid]
	if o == nil {
		o = &extOps{
			inserts:     map[*partition][]value.Row{},
			deletes:     map[*partition][]int{},
			preparedIDs: map[*partition][]int{},
		}
		x.ops[tid] = o
	}
	return o
}

func (x *extParticipant) bufferInsert(tid uint64, p *partition, row value.Row) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.get(tid).inserts[p] = append(x.get(tid).inserts[p], row.Clone())
}

func (x *extParticipant) bufferDelete(tid uint64, p *partition, rowID int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.get(tid).deletes[p] = append(x.get(tid).deletes[p], rowID)
}

// Prepare implements txn.Participant: writes become durable but remain
// invisible (insert stamps carry the TID).
func (x *extParticipant) Prepare(tid uint64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	o, ok := x.ops[tid]
	if !ok {
		return nil // read-only branch
	}
	// Each partition's rows, version stamps and prepared-ID list are keyed
	// by that partition alone, so cross-partition iteration order cannot
	// change any observable state.
	for p, rows := range o.inserts {
		for _, r := range rows {
			id := p.numRows()
			// Write-ahead: the EXTINS record precedes the disk append. Replay
			// resolves the rare record-without-row case (append failed after
			// logging) by letting the last record per (partition, id) win.
			if err := x.eng.logRedoRow(tid, redoExtIns, p.idx, id, x.table, r); err != nil {
				return err
			}
			if err := p.ext.Append(r); err != nil {
				return err
			}
			p.vers.Insert(id, tid)
			o.preparedIDs[p] = append(o.preparedIDs[p], id)
		}
		if err := p.ext.Flush(); err != nil {
			return err
		}
	}
	o.prepared = true
	return nil
}

// restoreOps rebuilds a prepared branch's work order during crash recovery:
// inserted row ids (already durable on disk) and buffered delete tombstones,
// keyed by partition. A later Resolve replays commit (tombstones + commit
// stamps) or abort (insert tombstones + stamp reversal) against it.
func (x *extParticipant) restoreOps(tid uint64, ins, del map[*partition][]int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	o := x.get(tid)
	// Each key's copied slice lands under that key alone — no cross-key
	// state, so iteration order is unobservable.
	for p, ids := range ins {
		o.preparedIDs[p] = append([]int(nil), ids...)
		if _, ok := o.inserts[p]; !ok {
			o.inserts[p] = nil // Commit/Abort iterate insert keys for stamping
		}
	}
	for p, ids := range del {
		o.deletes[p] = append([]int(nil), ids...)
	}
	o.prepared = true
}

// exportOps snapshots a branch's prepared ids and pending deletes per
// partition index — the savepoint representation of an in-doubt branch.
func (x *extParticipant) exportOps(tid uint64) (ins, del map[int][]int, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	o, found := x.ops[tid]
	if !found {
		return nil, nil, false
	}
	ins = map[int][]int{}
	del = map[int][]int{}
	// Map-to-map copy keyed by partition index: order cannot surface.
	for p, ids := range o.preparedIDs {
		ins[p.idx] = append([]int(nil), ids...)
	}
	for p, ids := range o.deletes {
		del[p.idx] = append([]int(nil), ids...)
	}
	return ins, del, true
}

// Commit implements txn.Participant: stamps versions and persists delete
// tombstones. The ops entry is removed only after the whole work order
// succeeds: diskstore.Delete skips already-applied tombstones and CommitTID
// re-stamps harmlessly, so when a manifest-save error leaves the branch
// in-doubt, a coordinator Resolve retry completes the commit instead of
// no-opping on a vanished entry.
func (x *extParticipant) Commit(tid, cid uint64) error {
	x.mu.Lock()
	o, ok := x.ops[tid]
	x.mu.Unlock()
	if !ok {
		return nil
	}
	parts := map[*partition]bool{}
	for p := range o.inserts {
		parts[p] = true
	}
	for p, ids := range o.deletes {
		parts[p] = true
		for _, id := range ids {
			if _, err := p.ext.Delete(int64(id)); err != nil {
				return err
			}
		}
	}
	for p := range parts {
		p.vers.CommitTID(tid, cid)
	}
	x.mu.Lock()
	delete(x.ops, tid)
	x.mu.Unlock()
	return nil
}

// Abort implements txn.Participant: tombstones prepared inserts and clears
// buffered state. The coordinator drops abort errors and this participant
// has no recovery pass, so a tombstone failure must not cut the loop short:
// every partition still gets its version stamps reverted, errors are
// collected, and the ops entry is retained on failure so a later Abort
// retry re-attempts the (idempotent) deletes.
func (x *extParticipant) Abort(tid uint64) error {
	x.mu.Lock()
	o, ok := x.ops[tid]
	x.mu.Unlock()
	if !ok {
		return nil
	}
	var err error
	for p, ids := range o.preparedIDs {
		for _, id := range ids {
			if _, e := p.ext.Delete(int64(id)); e != nil {
				err = errors.Join(err, e)
			}
		}
		p.vers.AbortTID(tid)
	}
	for p := range o.deletes {
		p.vers.AbortTID(tid)
	}
	if err != nil {
		return err
	}
	x.mu.Lock()
	delete(x.ops, tid)
	x.mu.Unlock()
	return nil
}
