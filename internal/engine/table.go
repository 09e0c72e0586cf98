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
		return int(p.ext.NumRows())
	}
	return 0
}

// scan visits every stored row of p, each version, in row-id order: the raw
// reads of savepoints and shard reseeding.
func (p *partition) scan(fn func(id int, row value.Row) bool) error {
	switch {
	case p.hot != nil:
		p.hot.Scan(fn)
	case p.row != nil:
		p.row.ScanRange(0, p.row.NumRows(), fn)
	default:
		return p.ext.Scan(nil, nil, func(id int64, row value.Row) bool { return fn(int(id), row) })
	}
	return nil
}

// storedTable is the runtime object for one catalog table: one partition
// for plain tables, several for hybrid tables.
type storedTable struct {
	mu      sync.Mutex
	eng     *Engine // owning engine (redo logging); set by buildStoredTable
	meta    *catalog.TableMeta
	parts   []*partition
	part2pc *extParticipant // shared 2PC participant for the cold partitions
	keys    keyIndex        // nil when the table has no primary key
}

// ErrDuplicateKey is the write rule's refusal of a row whose primary key a
// live version of the table already holds.
var ErrDuplicateKey = errors.New("duplicate primary key")

// keyIndex lists, per primary-key hash, every stored version of a keyed
// table in all its partitions: derived state, never logged or saved.
type keyIndex map[uint64][]keyLoc

type keyLoc struct {
	key value.Value
	p   *partition
	id  int
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

// addColumnLocked extends every partition and the catalog schema with col;
// stored rows read NULL in it. The caller holds t.mu.
func (t *storedTable) addColumnLocked(col value.Column) error {
	for _, p := range t.parts {
		switch {
		case p.hot != nil:
			p.hot.AddColumn(col)
		case p.ext != nil:
			if err := p.ext.AddColumn(col); err != nil {
				return err
			}
		}
	}
	t.meta.Schema.Cols = append(t.meta.Schema.Cols, col)
	return nil
}

// dropColdLocked removes the table's cold partitions from extended storage.
// The caller holds e.mu.
func (e *Engine) dropColdLocked(t *storedTable) {
	for _, p := range t.parts {
		if p.ext != nil {
			_ = e.ext.DropTable(p.ext.Name())
		}
	}
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

// insertRow appends a row to the partition its key routes it to, under the
// transaction.
func (t *storedTable) insertRow(tx *txn.Txn, row value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.partitionFor(row)
	if err != nil {
		return err
	}
	return t.appendLocked(tx, p, row)
}

// checkRowLocked is the write rule every row passes before its redo record,
// whatever the statement or placement: checkValues, then the primary key,
// checked per row as appended, like a non-deferrable unique constraint,
// against every partition's versions (RowVersions.HoldsKey).
func (t *storedTable) checkRowLocked(tid uint64, row value.Row) error {
	if err := t.checkValues(row); err != nil || t.keys == nil {
		return err
	}
	k := row[t.meta.PrimaryKey]
	return t.keys.find(k, func(l keyLoc) error {
		held, err := l.p.vers.HoldsKey(l.id, tid)
		if err == nil && held {
			err = duplicateKey(k)
		}
		return err
	})
}

// checkValues is the part of the write rule a row's values decide alone:
// its arity, and no NULL in a NOT NULL column (the key among them).
func (t *storedTable) checkValues(row value.Row) error {
	schema := t.meta.Schema
	if len(row) != schema.Len() {
		return fmt.Errorf("row arity %d does not match table %s", len(row), t.meta.Name)
	}
	for i, c := range schema.Cols {
		if row[i].IsNull() && !c.Nullable {
			return fmt.Errorf("column %s is NOT NULL", c.Name)
		}
	}
	return nil
}

func duplicateKey(k value.Value) error { return fmt.Errorf("%w %v", ErrDuplicateKey, k) }

// add indexes version id of p as holding key k.
func (ix keyIndex) add(k value.Value, p *partition, id int) {
	ix[k.Hash()] = append(ix[k.Hash()], keyLoc{key: k, p: p, id: id})
}

// find calls fn for each indexed version of key k until fn fails.
func (ix keyIndex) find(k value.Value, fn func(keyLoc) error) error {
	for _, l := range ix[k.Hash()] {
		if value.Compare(l.key, k) == 0 {
			if err := fn(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// storeLocked appends a checked or replayed row to p's store as row id and
// indexes its key, also when a cold append stores it but fails to flush.
func (t *storedTable) storeLocked(p *partition, id int, row value.Row) error {
	var err error
	switch {
	case p.hot != nil:
		_, err = p.hot.Append(row)
	case p.row != nil:
		_, err = p.row.Append(row)
	default:
		err = p.ext.Append(row)
	}
	if t.keys != nil && (err == nil || p.numRows() > id) {
		t.keys.add(row[t.meta.PrimaryKey], p, id)
	}
	return err
}

// appendLocked appends a row to p under the transaction, the same way on
// every placement: write rule, redo record, store append, then an insert
// stamp carrying the TID; so only valid writes are logged. The caller holds
// t.mu, so a savepoint sees the record and the row together or neither. A
// row stored by an append that then fails (a cold tail that could not
// flush) is stamped all the same, as replay does.
func (t *storedTable) appendLocked(tx *txn.Txn, p *partition, row value.Row) error {
	if err := t.checkRowLocked(tx.TID, row); err != nil {
		return err
	}
	id := p.numRows()
	if err := t.eng.logRedoRow(tx.TID, 0, redoIns, p.idx, id, t.meta.Name, row); err != nil {
		return err
	}
	err := t.storeLocked(p, id, row)
	if err != nil && p.numRows() == id {
		return err
	}
	p.vers.Insert(id, tx.TID)
	t.enlist(tx, p)
	t.eng.distMirrorInsert(tx, t, id, row)
	return err
}

// deleteRow stamps a visible row deleted under the transaction once the
// conflict rule allows it, under t.mu: the check, the redo record and the
// stamp are one unit to other writers and a concurrent savepoint.
func (t *storedTable) deleteRow(tx *txn.Txn, p *partition, rowID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := p.vers.Deletable(rowID, tx.TID); err != nil {
		return err
	}
	if err := t.eng.logRedoRow(tx.TID, 0, redoDel, p.idx, rowID, t.meta.Name, nil); err != nil {
		return err
	}
	p.vers.Delete(rowID, tx.TID)
	t.enlist(tx, p)
	t.eng.distMirrorDelete(tx, t, p, rowID)
	return nil
}

// enlist ties p's stamps to the transaction's outcome. The transaction
// stamps a hot or row partition itself. A cold partition is stamped by the
// table's 2PC participant alone, so an in-doubt branch stays invisible until
// it is resolved.
func (t *storedTable) enlist(tx *txn.Txn, p *partition) {
	if p.ext != nil {
		tx.Enlist(t.part2pc)
	} else {
		tx.Touch(p.vers)
	}
}

// extParticipant is the two-phase-commit participant of a table's cold
// (extended storage) partitions, mirroring §3.1's integration of the IQ
// store into distributed HANA transactions. Cold writes land at statement
// time like hot ones, so the participant keeps no per-transaction state:
// Prepare makes the table's cold tails durable, Commit and Abort stamp or
// revert the transaction's version stamps. Both are idempotent, so a
// resolution retry completes a branch whatever an earlier attempt did.
type extParticipant struct {
	name string
	t    *storedTable
}

// Name implements txn.Participant.
func (x *extParticipant) Name() string { return x.name }

// Prepare implements txn.Participant: the cold tails reach their disk
// chunks; the rows stay invisible behind their TID stamps.
func (x *extParticipant) Prepare(uint64) error {
	for _, p := range x.t.parts {
		if p.ext != nil {
			if err := p.ext.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Commit implements txn.Participant.
func (x *extParticipant) Commit(tid, cid uint64) error {
	for _, p := range x.t.parts {
		if p.ext != nil {
			p.vers.CommitTID(tid, cid)
		}
	}
	return nil
}

// Abort implements txn.Participant.
func (x *extParticipant) Abort(tid uint64) error {
	for _, p := range x.t.parts {
		if p.ext != nil {
			p.vers.AbortTID(tid)
		}
	}
	return nil
}
