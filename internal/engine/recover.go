package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hana/internal/catalog"
	"hana/internal/txn"
	"hana/internal/value"
)

// Crash recovery: Open (or Recover) loads the newest savepoint (physical
// rows, version vectors, catalog metadata, coordinator watermarks, in-doubt
// branches), replays the WAL suffix tolerantly (a torn tail is truncated at
// the first bad record), rebuilds the coordinator from its control records
// and then makes three passes. Only valid writes are logged, so replay
// applies them and checks none again.
//
//  1. decide every transaction's outcome from the log and the savepoint's
//     in-doubt branches, restoring the branches the suffix did not resolve;
//  2. apply redo records in LSN order, one rule for every placement: skip a
//     record of a table the log drops later, and a record the version
//     vector already covers; append a row whose row id is the store's row
//     count (its key indexed as it is stored), and for a cold row already
//     on disk (indexed when its table was built) only stamp it; stamp a
//     delete only for a transaction that committed or is in doubt, over
//     any stamp the savepoint carried from one that did not. A failed
//     re-apply, a gap, or a vector longer than its store is an error;
//  3. finalize outcomes: commit stamps in CID order (an in-doubt branch's
//     cold stamps wait for its resolution), abort stamps, then every stamp
//     still pending either belongs to an in-doubt branch — re-marked with
//     the participant of the cold partition holding it — or is aborted (the
//     crash cut its transaction short).
//
// Disk rows no record names have no version and stay invisible. Recovery
// does NOT resolve in-doubt branches — callers drive ResolveAllInDoubt (or
// manual ResolveInDoubt), the same path used for in-flight ones.

// RecoveryInfo summarizes what recovery did; exposed via the M_RECOVERY
// system view and the crash harness.
type RecoveryInfo struct {
	Recovered      bool   // an Open against existing state ran recovery
	SavepointLSN   uint64 // 0 = no savepoint found
	WALRecords     int    // records replayed from the WAL (suffix)
	DataRecords    int    // redo records among them
	SkippedRecords int    // redo records skipped (idempotent or superseded)
	TornTail       bool   // the WAL tail was torn and truncated
	TornReason     string
	Committed      int // distinct committed transactions replayed
	Aborted        int // distinct aborted transactions replayed
	Orphaned       int // undecided transactions aborted by recovery
	InDoubt        int // branches left in-doubt for resolution
	LastLSN        uint64
}

// Open opens a durable engine rooted at cfg.DataDir: the WAL lives at
// <dir>/wal.log, savepoints at <dir>/sp_<lsn>, and — unless
// ExtendedStorageDir overrides it — the extended store at <dir>/ext.
// A fresh directory yields an empty engine; an existing one is recovered
// from its savepoint and WAL.
func Open(cfg Config) (*Engine, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("engine: Open requires Config.DataDir")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	wal, err := txn.OpenLog(filepath.Join(cfg.DataDir, "wal.log"))
	if err != nil {
		return nil, err
	}
	cfg.WAL = wal
	if cfg.WALSync == (txn.SyncPolicy{}) {
		cfg.WALSync = txn.SyncPolicy{Mode: txn.SyncCommit}
	}
	if cfg.ExtendedStorageDir == "" {
		cfg.ExtendedStorageDir = filepath.Join(cfg.DataDir, "ext")
	}
	e := New(cfg)
	e.ownWAL = true
	e.dataDir = cfg.DataDir
	if err := e.recoverFrom(); err != nil {
		_ = wal.Close()
		return nil, err
	}
	// Workers hold no durable state: rebuild the shard mirrors from the
	// recovered tables before the engine serves queries.
	if err := e.distReseedAll(); err != nil {
		_ = wal.Close()
		return nil, err
	}
	e.startCheckpointer()
	return e, nil
}

// Recover opens the engine at dir, running crash recovery — shorthand for
// Open with Config.DataDir set.
func Recover(dir string, cfg Config) (*Engine, error) {
	cfg.DataDir = dir
	return Open(cfg)
}

// Close stops the background checkpointer and releases the WAL handle when
// the engine owns it (created by Open).
func (e *Engine) Close() error {
	e.stopCheckpointer()
	if e.ownWAL && e.wal != nil {
		return e.wal.Close()
	}
	return nil
}

// WAL exposes the engine's write-ahead log (nil when durability is off).
func (e *Engine) WAL() *txn.Log { return e.wal }

// DataDir returns the durable root ("" for in-memory engines).
func (e *Engine) DataDir() string { return e.dataDir }

// RecoveryInfo reports what the last Open/Recover did.
func (e *Engine) RecoveryInfo() RecoveryInfo { return e.recovery }

// outcomes returns every decision the replayed control records hold, tid ->
// commit ID (0 = aborted), and the transactions whose branches were
// resolved. Last decision wins: a COMMIT followed by an ABORT (the decision
// record never became durable and the coordinator rolled back) counts as
// aborted.
func outcomes(recs []txn.Record) (fate map[uint64]uint64, resolved map[uint64]bool) {
	fate, resolved = map[uint64]uint64{}, map[uint64]bool{}
	for _, r := range recs {
		switch r.Type {
		case txn.RecCommit:
			fate[r.TID] = r.CID
		case txn.RecAbort:
			fate[r.TID] = 0
		case txn.RecResolve:
			resolved[r.TID] = true
		}
	}
	return fate, resolved
}

// recoverFrom rebuilds the engine from e.dataDir. Called once from Open,
// before the engine is shared with any other goroutine.
func (e *Engine) recoverFrom() error {
	e.recovering = true
	defer func() { e.recovering = false }()
	info := RecoveryInfo{}

	manifest, spDir, err := e.loadSavepointManifest()
	if err != nil {
		return err
	}
	if manifest != nil {
		info.SavepointLSN = manifest.LSN
		if err := e.restoreSavepointTables(manifest, spDir); err != nil {
			return err
		}
	}

	var recs []txn.Record
	stats, err := e.wal.ReplayVerified(func(r txn.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return fmt.Errorf("recovery: WAL replay: %w", err)
	}
	info.WALRecords = stats.Records
	info.TornTail = stats.TornTail
	info.TornReason = stats.Reason
	info.LastLSN = e.wal.LastLSN()
	info.Recovered = manifest != nil || stats.Records > 0

	// Rebuild the coordinator from the suffix's control records, then lift
	// its watermarks to the savepoint's.
	mgr := txn.RecoverRecords(e.wal, recs)
	mgr.SetInjector(e.cfg.Faults)
	if manifest != nil {
		mgr.RaiseWatermarks(manifest.NextTID, manifest.LastCID)
	}
	e.mgr = mgr

	// Pass 1: outcomes. A branch the savepoint carries in doubt and the
	// suffix resolved takes its decision: commit when a commit ID was
	// allocated.
	fate, resolved := outcomes(recs)
	type commit struct{ tid, cid uint64 }
	var commits []commit
	var aborts []uint64
	decide := func(tid, cid uint64) {
		if cid != 0 {
			commits = append(commits, commit{tid, cid})
		} else {
			aborts = append(aborts, tid)
		}
	}
	for tid, cid := range fate {
		decide(tid, cid)
	}
	info.Committed, info.Aborted = len(commits), len(aborts)
	if manifest != nil {
		for _, b := range manifest.Branch {
			if resolved[b.TID] {
				fate[b.TID] = b.CID
				decide(b.TID, b.CID)
				continue
			}
			cid := b.CID
			if c := fate[b.TID]; c != 0 {
				cid = c
			}
			e.mgr.MarkInDoubt(b.TID, b.Participant, cid)
		}
	}
	inDoubt := map[uint64]uint64{} // tid -> decided cid
	for _, b := range e.mgr.InDoubtInfo() {
		inDoubt[b.TID] = b.CID
	}
	orphans := map[uint64]bool{}

	// Pass 2: data records in LSN order. A table dropped later in the log
	// may share its name, and so its cold store, with one created after
	// the drop; the records before its last drop are skipped, since the
	// store no longer holds its rows.
	var data []redoRec
	lastDrop := map[string]uint64{}
	for _, r := range recs {
		if r.Type != txn.RecData {
			continue
		}
		info.DataRecords++
		rec, err := decodeRedoNote(r.Note)
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
		}
		rec.tid, rec.cid, rec.lsn = r.TID, r.CID, r.LSN
		if rec.op == redoDDLDrop {
			lastDrop[strings.ToUpper(rec.table)] = rec.lsn
		}
		data = append(data, rec)
	}
	for _, rec := range data {
		skipped := false
		_, doubt := inDoubt[rec.tid]
		switch {
		case rec.op == redoDDLCreate || rec.op == redoDDLDrop:
			err = e.applyRedoDDL(rec)
		case rec.lsn < lastDrop[strings.ToUpper(rec.table)]:
			skipped = true
		case rec.op == redoDDLAlter:
			err = e.applyRedoDDL(rec)
		case rec.op == redoDel && fate[rec.tid] == 0 && !doubt:
			// Aborted, or cut short by the crash: pass 3 would revert the
			// stamp, and until then it must not hold the row.
			if _, ok := fate[rec.tid]; !ok {
				orphans[rec.tid] = true
			}
		default:
			skipped, err = e.applyRedoRow(rec)
		}
		if err != nil {
			return fmt.Errorf("recovery: LSN %d: %w", rec.lsn, err)
		}
		if skipped {
			info.SkippedRecords++
		}
	}
	var short error
	e.forEachPartition(func(t *storedTable, p *partition) {
		if short == nil && p.vers.Len() > p.numRows() {
			short = fmt.Errorf("recovery: table %s partition %d: %d versions for %d stored rows", t.meta.Name, p.idx, p.vers.Len(), p.numRows())
		}
	})
	if short != nil {
		return short
	}
	// Pass 3: outcome stamps. Commit in CID order so later commits of the
	// same rows land last, then abort; what is still pending is in-doubt or
	// orphaned. As in a running engine, an in-doubt branch's cold stamps
	// wait for its resolution.
	sort.Slice(commits, func(i, j int) bool { return commits[i].cid < commits[j].cid })
	sort.Slice(aborts, func(i, j int) bool { return aborts[i] < aborts[j] })
	e.forEachPartition(func(t *storedTable, p *partition) {
		for _, c := range commits {
			if _, ok := inDoubt[c.tid]; ok && p.ext != nil {
				continue // only its participant stamps an in-doubt cold branch
			}
			p.vers.CommitTID(c.tid, c.cid)
		}
		for _, tid := range aborts {
			p.vers.AbortTID(tid)
		}
		for _, tid := range p.vers.PendingTIDs() {
			cid, ok := inDoubt[tid]
			switch {
			case !ok:
				orphans[tid] = true
				p.vers.AbortTID(tid)
			case p.ext != nil:
				// The log knows a prepared-but-undecided branch by TID
				// alone; its cold stamps name the participant.
				e.mgr.MarkInDoubt(tid, t.part2pc.name, cid)
			}
		}
	})
	info.Orphaned = len(orphans)
	info.InDoubt = len(inDoubt)
	e.recovery = info
	e.publishRecoveryMetrics()
	return nil
}

// forEachPartition visits every partition of every table in sorted table
// order.
func (e *Engine) forEachPartition(fn func(t *storedTable, p *partition)) {
	keys := make([]string, 0, len(e.tables))
	for k := range e.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := e.tables[k]
		for _, p := range t.parts {
			fn(t, p)
		}
	}
}

// loadSavepointManifest reads CURRENT and the manifest it points to.
// A missing CURRENT means no savepoint; a CURRENT pointing at a missing or
// unreadable savepoint is an error (the state is there but unusable).
func (e *Engine) loadSavepointManifest() (*spManifest, string, error) {
	cur, err := os.ReadFile(filepath.Join(e.dataDir, "CURRENT"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	dir := filepath.Join(e.dataDir, strings.TrimSpace(string(cur)))
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, "", fmt.Errorf("recovery: savepoint manifest: %w", err)
	}
	var m spManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, "", fmt.Errorf("recovery: savepoint manifest: %w", err)
	}
	return &m, dir, nil
}

// restoreSavepointTables rebuilds every table from the manifest: catalog
// entry, physical rows, version vectors.
func (e *Engine) restoreSavepointTables(m *spManifest, spDir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range m.Tables {
		meta := &catalog.TableMeta{}
		if err := json.Unmarshal(st.Meta, meta); err != nil {
			return fmt.Errorf("recovery: table meta: %w", err)
		}
		if meta.Schema == nil || meta.PrimaryKey < -1 || meta.PrimaryKey >= meta.Schema.Len() {
			return fmt.Errorf("recovery: table %s: no schema, or primary key %d outside it", meta.Name, meta.PrimaryKey)
		}
		t, err := e.buildStoredTable(meta)
		if err != nil {
			return err
		}
		if err := e.cat.AddTable(meta); err != nil {
			return err
		}
		e.tables[strings.ToUpper(meta.Name)] = t
		for _, sp := range st.Parts {
			if sp.Idx < 0 || sp.Idx >= len(t.parts) {
				return fmt.Errorf("recovery: table %s: bad partition index %d", meta.Name, sp.Idx)
			}
			if err := sp.check(); err != nil {
				return fmt.Errorf("recovery: table %s partition %d: %w", meta.Name, sp.Idx, err)
			}
			p := t.parts[sp.Idx]
			if sp.File != "" && p.ext != nil {
				return fmt.Errorf("recovery: table %s partition %d: a rows file for extended storage", meta.Name, sp.Idx)
			}
			if sp.File != "" {
				data, err := os.ReadFile(filepath.Join(spDir, sp.File))
				if err != nil {
					return fmt.Errorf("recovery: rows of %s: %w", meta.Name, err)
				}
				off := 0
				for i := 0; i < sp.Rows; i++ {
					row, n, err := value.DecodeRow(data[off:])
					if err != nil {
						return fmt.Errorf("recovery: rows of %s: row %d: %w", meta.Name, i, err)
					}
					off += n
					if err := t.storeLocked(p, i, row); err != nil {
						return fmt.Errorf("recovery: rows of %s: row %d: %w", meta.Name, i, err)
					}
				}
			}
			p.vers.Import(sp.Vers)
		}
	}
	return nil
}

// applyRedoDDL replays a DDL record. Creates and alters are idempotent
// against the savepoint.
func (e *Engine) applyRedoDDL(rec redoRec) error {
	key := strings.ToUpper(rec.table)
	switch rec.op {
	case redoDDLCreate:
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.tables[key]; ok {
			return nil // already present (savepoint covered it)
		}
		meta := &catalog.TableMeta{}
		if err := json.Unmarshal(rec.payload, meta); err != nil {
			return fmt.Errorf("create %s: %w", rec.table, err)
		}
		t, err := e.buildStoredTable(meta)
		if err != nil {
			return err
		}
		if err := e.cat.AddTable(meta); err != nil {
			return err
		}
		e.tables[key] = t
	case redoDDLDrop:
		e.mu.Lock()
		defer e.mu.Unlock()
		if t, ok := e.tables[key]; ok {
			e.dropColdLocked(t)
			delete(e.tables, key)
			_ = e.cat.DropTable(rec.table)
		}
	case redoDDLAlter:
		t, err := e.table(rec.table)
		if err != nil {
			return nil // dropped later in the log; records for it are skipped anyway
		}
		var cols []value.Column
		if err := json.Unmarshal(rec.payload, &cols); err != nil {
			return fmt.Errorf("alter %s: %w", rec.table, err)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		for _, col := range cols {
			if t.meta.Schema.Find(col.Name) >= 0 {
				continue
			}
			if err := t.addColumnLocked(col); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyRedoRow re-applies one insert or delete record, whatever the
// placement. Only writes the rule accepted were logged, so nothing is
// checked again and a re-apply that fails is an error. It returns whether
// the record was skipped because the savepoint already covers it.
func (e *Engine) applyRedoRow(rec redoRec) (bool, error) {
	t, err := e.table(rec.table)
	if err != nil {
		return true, nil // table dropped later in the log
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.part < 0 || rec.part >= len(t.parts) {
		return false, fmt.Errorf("table %s: bad partition %d", rec.table, rec.part)
	}
	p := t.parts[rec.part]
	if rec.op == redoDel {
		if rec.rowID >= p.vers.Len() {
			return false, fmt.Errorf("table %s: delete of row %d, which has no version", rec.table, rec.rowID)
		}
		return !p.vers.Delete(rec.rowID, rec.tid), nil
	}
	if rec.rowID < p.vers.Len() {
		return true, nil
	}
	stored := p.numRows()
	if rec.rowID > stored {
		return false, fmt.Errorf("table %s: redo gap: record row %d, store at %d", rec.table, rec.rowID, stored)
	}
	// A cold row below the store's count reached the disk before the crash
	// and only needs its stamp; a row at the count is appended again.
	if rec.rowID == stored {
		row, _, err := value.DecodeRow(rec.payload)
		if err != nil {
			return false, err
		}
		if err := t.storeLocked(p, rec.rowID, row); err != nil {
			return false, fmt.Errorf("table %s: re-append row %d: %w", rec.table, rec.rowID, err)
		}
	}
	if rec.op == redoInsC {
		p.vers.InsertCommitted(rec.rowID, rec.cid)
	} else {
		p.vers.Insert(rec.rowID, rec.tid)
	}
	return false, nil
}

// publishRecoveryMetrics mirrors RecoveryInfo into the registry for the
// M_RECOVERY system view.
func (e *Engine) publishRecoveryMetrics() {
	g := func(name string, v int64) { e.obs.Gauge(name).Set(v) }
	b := int64(0)
	if e.recovery.Recovered {
		b = 1
	}
	g("recovery.recovered", b)
	g("recovery.savepoint_lsn", int64(e.recovery.SavepointLSN))
	g("recovery.wal_records", int64(e.recovery.WALRecords))
	g("recovery.data_records", int64(e.recovery.DataRecords))
	g("recovery.skipped_records", int64(e.recovery.SkippedRecords))
	g("recovery.committed", int64(e.recovery.Committed))
	g("recovery.aborted", int64(e.recovery.Aborted))
	g("recovery.orphaned", int64(e.recovery.Orphaned))
	g("recovery.in_doubt", int64(e.recovery.InDoubt))
	t := int64(0)
	if e.recovery.TornTail {
		t = 1
	}
	g("recovery.torn_tail", t)
}
