// Package engine implements the platform's core database engine: catalog-
// backed storage over the in-memory column/row stores and the disk-based
// extended storage, MVCC transactions with two-phase commit across engines,
// a cost-based planner with the paper's federated execution strategies
// (remote scan, semijoin, table relocation, union plan, and SDA query
// shipping with remote materialization), and hybrid-table aging.
package engine

import (
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

// appendLocked appends a row to p under the transaction. Every placement
// writes the same way: the redo record, then the store append, then an
// insert stamp carrying the TID. The caller holds t.mu, so a savepoint sees
// the record and the row together or neither. An append that fails after the
// record is logged and stores nothing (duplicate primary key) fails
// identically during replay and is skipped there, keeping row ids aligned.
// One that stores the row and then fails (a cold tail that could not flush)
// stamps it all the same, as replay does, and returns the error.
func (t *storedTable) appendLocked(tx *txn.Txn, p *partition, row value.Row) error {
	id := p.numRows()
	if err := t.eng.logRedoRow(tx.TID, redoIns, p.idx, id, t.meta.Name, row); err != nil {
		return err
	}
	var err error
	switch {
	case p.hot != nil:
		id, err = p.hot.Append(row)
	case p.row != nil:
		id, err = p.row.Append(row)
	default:
		err = p.ext.Append(row)
	}
	if err != nil && (p.ext == nil || p.numRows() == id) {
		return err
	}
	p.vers.Insert(id, tx.TID)
	t.enlist(tx, p)
	t.eng.distMirrorInsert(tx, t, id, row)
	return err
}

// deleteRow stamps a visible row deleted under the transaction. It takes
// t.mu so the redo record and the version stamp are one atomic unit with
// respect to a concurrent savepoint.
func (t *storedTable) deleteRow(tx *txn.Txn, p *partition, rowID int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.eng.logRedoRow(tx.TID, redoDel, p.idx, rowID, t.meta.Name, nil); err != nil {
		return err
	}
	if err := p.vers.Delete(rowID, tx.TID); err != nil {
		return err
	}
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
