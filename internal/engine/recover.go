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

// Crash recovery: Open (or Recover) rebuilds an engine from its data
// directory in four steps —
//
//  1. load the newest savepoint: physical rows, version vectors, catalog
//     metadata, coordinator watermarks, in-doubt branches;
//  2. replay the WAL suffix tolerantly (a torn tail is truncated at the
//     first bad record) and rebuild the coordinator from the control
//     records;
//  3. apply redo records in LSN order. Hot/row appends re-attempt the
//     original mutation — a deterministic failure (duplicate key) is
//     skipped exactly as it failed originally, keeping row ids aligned;
//     extended-storage records are resolved per (partition, row id) with
//     last-record-wins, then applied per transaction outcome;
//  4. finalize outcomes: commit stamps in CID order, abort stamps, then
//     abort every version stamp whose transaction is neither decided nor
//     in-doubt (the crash cut it short).
//
// Prepared-but-undecided branches are re-marked in-doubt with their
// participant identity and rebuilt work orders; recovery does NOT resolve
// them — callers drive ResolveAllInDoubt (or manual ResolveInDoubt), the
// same path used for in-flight in-doubt branches.

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

// walOutcomes is the per-transaction decision state extracted from the
// replayed control records. Last decision wins: a COMMIT followed by an
// ABORT (the decision record never became durable and the coordinator
// rolled back) counts as aborted.
type walOutcomes struct {
	committed map[uint64]uint64 // tid -> cid
	aborted   map[uint64]bool
	resolved  map[uint64]bool // RecResolve seen (phase 2 completed / branch resolved)
}

func computeOutcomes(recs []txn.Record) walOutcomes {
	out := walOutcomes{
		committed: map[uint64]uint64{},
		aborted:   map[uint64]bool{},
		resolved:  map[uint64]bool{},
	}
	for _, r := range recs {
		switch r.Type {
		case txn.RecCommit:
			out.committed[r.TID] = r.CID
			delete(out.aborted, r.TID)
		case txn.RecAbort:
			out.aborted[r.TID] = true
			delete(out.committed, r.TID)
		case txn.RecResolve:
			out.resolved[r.TID] = true
		}
	}
	return out
}

// extEvent is one extended-storage redo record held back for outcome-aware
// application (see the package comment on last-record-wins).
type extEvent struct {
	op    byte
	tid   uint64
	cid   uint64 // redoInsC only
	table string
	part  int
	rowID int
	row   value.Row
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

	out := computeOutcomes(recs)
	info.Committed = len(out.committed)
	info.Aborted = len(out.aborted)

	// Pass 1: data records in LSN order. Hot/row records apply immediately;
	// extended-storage records collect into events for outcome-aware
	// application below.
	var extEvents []extEvent
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
		switch rec.op {
		case redoDDLCreate, redoDDLDrop, redoDDLAlter:
			if err := e.applyRedoDDL(rec, &extEvents); err != nil {
				return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			}
		case redoIns, redoInsC, redoDel:
			if rec.op == redoInsC && e.isExtPart(rec.table, rec.part) {
				// Bulk loads into extended partitions replay through the
				// outcome-aware ext pass: the disk may already hold the row
				// (diskstore durability is independent of the savepoint), but
				// its MVCC stamp still needs re-applying.
				row, _, err := value.DecodeRow(rec.payload)
				if err != nil {
					return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
				}
				extEvents = append(extEvents, extEvent{op: rec.op, tid: rec.tid, cid: rec.cid,
					table: rec.table, part: rec.part, rowID: rec.rowID, row: row})
				continue
			}
			skipped, err := e.applyRedoMem(rec)
			if err != nil {
				return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
			}
			if skipped {
				info.SkippedRecords++
			}
		case redoExtIns, redoExtDel:
			ev := extEvent{op: rec.op, tid: rec.tid, cid: rec.cid, table: rec.table, part: rec.part, rowID: rec.rowID}
			if rec.op == redoExtIns {
				row, _, err := value.DecodeRow(rec.payload)
				if err != nil {
					return fmt.Errorf("recovery: LSN %d: %w", r.LSN, err)
				}
				ev.row = row
			}
			extEvents = append(extEvents, ev)
		}
	}

	// Pass 2: extended storage, outcome-aware.
	inDoubtSet := e.mgr.InDoubt()
	extInfo, err := e.applyExtEvents(extEvents, out, inDoubtSet)
	if err != nil {
		return err
	}
	info.SkippedRecords += extInfo

	// Pass 3: restore in-doubt branches carried by the savepoint, unless
	// the suffix shows them resolved.
	if manifest != nil {
		if err := e.restoreSavepointBranches(manifest, out); err != nil {
			return err
		}
	}

	// Pass 4: outcome stamps. Commit in CID order so later commits of the
	// same rows land last, then abort, then orphan-abort every version
	// stamp with no decision and no in-doubt branch.
	type commit struct{ tid, cid uint64 }
	commits := make([]commit, 0, len(out.committed))
	for tid, cid := range out.committed {
		commits = append(commits, commit{tid, cid})
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].cid < commits[j].cid })
	aborts := make([]uint64, 0, len(out.aborted))
	for tid := range out.aborted {
		aborts = append(aborts, tid)
	}
	sort.Slice(aborts, func(i, j int) bool { return aborts[i] < aborts[j] })

	e.forEachPartition(func(t *storedTable, p *partition) {
		for _, c := range commits {
			p.vers.CommitTID(c.tid, c.cid)
		}
		for _, tid := range aborts {
			p.vers.AbortTID(tid)
		}
	})
	inDoubtNow := e.mgr.InDoubt()
	orphans := map[uint64]bool{}
	e.forEachPartition(func(t *storedTable, p *partition) {
		for _, tid := range p.vers.PendingTIDs() {
			if _, ok := inDoubtNow[tid]; ok {
				continue
			}
			orphans[tid] = true
			p.vers.AbortTID(tid)
		}
	})
	info.Orphaned = len(orphans)
	info.InDoubt = len(inDoubtNow)
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
					if p.hot != nil {
						_, err = p.hot.Append(row)
					} else {
						_, err = p.row.Append(row)
					}
					if err != nil {
						return fmt.Errorf("recovery: rows of %s: row %d: %w", meta.Name, i, err)
					}
				}
			}
			// The version snapshot is authoritative — it overwrites whatever
			// buildStoredTable seeded for reopened extended partitions.
			p.vers.Import(sp.Vers)
		}
	}
	return nil
}

// applyRedoDDL replays a DDL record. Creates and alters are idempotent
// against the savepoint; a drop also discards pending extended-storage
// events of the dropped incarnation.
func (e *Engine) applyRedoDDL(rec redoRec, extEvents *[]extEvent) error {
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
		t, ok := e.tables[key]
		if ok {
			for i, p := range t.parts {
				if p.ext != nil {
					suffix := ""
					if t.meta.Placement == catalog.PlacementHybrid {
						suffix = fmt.Sprintf("$p%d", i)
					}
					_ = e.ext.DropTable(t.meta.Name + suffix)
				}
			}
			delete(e.tables, key)
			_ = e.cat.DropTable(rec.table)
		}
		e.mu.Unlock()
		kept := (*extEvents)[:0]
		for _, ev := range *extEvents {
			if !strings.EqualFold(ev.table, rec.table) {
				kept = append(kept, ev)
			}
		}
		*extEvents = kept
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
		}
	}
	return nil
}

// isExtPart reports whether a redo record targets an extended partition of
// a table that exists at this point of the replay.
func (e *Engine) isExtPart(table string, part int) bool {
	t, err := e.table(table)
	if err != nil || part < 0 || part >= len(t.parts) {
		return false
	}
	return t.parts[part].ext != nil
}

// applyRedoMem replays one hot/row-store record. Returns whether the record
// was skipped (already covered by the savepoint, or the original mutation
// failed deterministically and fails again here).
func (e *Engine) applyRedoMem(rec redoRec) (bool, error) {
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
	switch rec.op {
	case redoIns, redoInsC:
		if rec.rowID < p.numRows() {
			return true, nil // savepoint already holds the row and its stamp
		}
		if rec.rowID > p.numRows() {
			return false, fmt.Errorf("table %s: redo gap: record row %d, store at %d", rec.table, rec.rowID, p.numRows())
		}
		row, _, err := value.DecodeRow(rec.payload)
		if err != nil {
			return false, err
		}
		var appendErr error
		if p.hot != nil {
			_, appendErr = p.hot.Append(row)
		} else if p.row != nil {
			_, appendErr = p.row.Append(row)
		} else {
			return false, fmt.Errorf("table %s: %s record against extended partition", rec.table, redoOpName(rec.op))
		}
		if appendErr != nil {
			// The original append failed the same deterministic way (e.g.
			// duplicate primary key) and consumed no row id.
			return true, nil
		}
		if rec.op == redoInsC {
			p.vers.InsertCommitted(rec.rowID, rec.cid)
		} else {
			p.vers.Insert(rec.rowID, rec.tid)
		}
	case redoDel:
		if err := p.vers.Delete(rec.rowID, rec.tid); err != nil {
			// The original delete hit the same conflict; skip.
			return true, nil
		}
	}
	return false, nil
}

// applyExtEvents applies the extended-storage redo events. Insert events
// resolve per (table, partition, rowID) with last-record-wins — an append
// that failed after its record was logged consumed no row id, so a later
// record at the same id supersedes it. Application depends on the owning
// transaction's outcome: committed rows are stamped (and re-appended if the
// disk lost them), in-doubt rows keep their TID stamps and rebuild the
// participant work order, everything else is tombstoned if durable.
// Returns how many events were skipped as superseded or inapplicable.
func (e *Engine) applyExtEvents(events []extEvent, out walOutcomes, inDoubt map[uint64]string) (int, error) {
	skipped := 0
	// Winner resolution for insert-type events.
	type key struct {
		table string
		part  int
		rowID int
	}
	winner := map[key]int{} // -> index in events
	for i, ev := range events {
		if ev.op == redoExtIns || ev.op == redoInsC {
			winner[key{strings.ToUpper(ev.table), ev.part, ev.rowID}] = i
		}
	}
	// Rebuilt work orders for in-doubt branches.
	insOps := map[uint64]map[*partition][]int{}
	delOps := map[uint64]map[*partition][]int{}
	branchTable := map[uint64]string{}
	touched := map[*partition]bool{}

	// Apply inserts in (table, part, rowID) order so disk appends extend
	// each partition sequentially; deletes follow in log order.
	insIdx := make([]int, 0, len(winner))
	for i, ev := range events {
		if ev.op != redoExtIns && ev.op != redoInsC {
			continue
		}
		if winner[key{strings.ToUpper(ev.table), ev.part, ev.rowID}] != i {
			skipped++ // superseded: the original append failed
			continue
		}
		insIdx = append(insIdx, i)
	}
	sort.Slice(insIdx, func(a, b int) bool {
		x, y := events[insIdx[a]], events[insIdx[b]]
		if x.table != y.table {
			return x.table < y.table
		}
		if x.part != y.part {
			return x.part < y.part
		}
		return x.rowID < y.rowID
	})
	resolvePart := func(ev extEvent) *partition {
		t, err := e.table(ev.table)
		if err != nil || ev.part < 0 || ev.part >= len(t.parts) {
			return nil
		}
		p := t.parts[ev.part]
		if p.ext == nil {
			return nil
		}
		return p
	}
	for _, i := range insIdx {
		ev := events[i]
		p := resolvePart(ev)
		if p == nil {
			skipped++
			continue
		}
		total := int(p.ext.TotalRows())
		cid, isCommitted := out.committed[ev.tid]
		_, isInDoubt := inDoubt[ev.tid]
		if ev.op == redoInsC {
			isCommitted, cid = true, ev.cid
			isInDoubt = false
		}
		switch {
		case isCommitted || isInDoubt:
			if ev.rowID > total {
				return skipped, fmt.Errorf("recovery: table %s: ext redo gap: record row %d, store at %d", ev.table, ev.rowID, total)
			}
			if ev.rowID == total {
				// The row never reached the disk (buffered append lost with
				// the crash); the record carries it.
				if err := p.ext.Append(ev.row); err != nil {
					return skipped, fmt.Errorf("recovery: table %s: re-append row %d: %w", ev.table, ev.rowID, err)
				}
				touched[p] = true
			}
			if ev.op == redoInsC {
				p.vers.InsertCommitted(ev.rowID, cid)
			} else {
				p.vers.Insert(ev.rowID, ev.tid)
				if isInDoubt {
					addOp(insOps, ev.tid, p, ev.rowID)
					branchTable[ev.tid] = ev.table
				}
			}
		default:
			// Aborted or undecided-unprepared: tombstone what is durable.
			if ev.rowID < total {
				_, _ = p.ext.Delete(int64(ev.rowID))
			} else {
				skipped++
			}
		}
	}
	for _, ev := range events {
		if ev.op != redoExtDel {
			continue
		}
		p := resolvePart(ev)
		if p == nil {
			skipped++
			continue
		}
		_, isCommitted := out.committed[ev.tid]
		_, isInDoubt := inDoubt[ev.tid]
		switch {
		case isCommitted:
			if ev.rowID < int(p.ext.TotalRows()) {
				if _, err := p.ext.Delete(int64(ev.rowID)); err != nil {
					return skipped, fmt.Errorf("recovery: table %s: tombstone row %d: %w", ev.table, ev.rowID, err)
				}
			}
			_ = p.vers.Delete(ev.rowID, ev.tid)
		case isInDoubt:
			_ = p.vers.Delete(ev.rowID, ev.tid)
			addOp(delOps, ev.tid, p, ev.rowID)
			branchTable[ev.tid] = ev.table
		default:
			skipped++
		}
	}
	for p := range touched {
		if err := p.ext.Flush(); err != nil {
			return skipped, fmt.Errorf("recovery: flush: %w", err)
		}
	}
	// Rebuild participant work orders and attach participant identities to
	// the branches the log only knows by TID.
	tids := make([]uint64, 0, len(branchTable))
	for tid := range branchTable {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		table := branchTable[tid]
		t, err := e.table(table)
		if err != nil {
			continue
		}
		t.part2pc.restoreOps(tid, insOps[tid], delOps[tid])
		e.mgr.MarkInDoubt(tid, t.part2pc.name, out.committed[tid])
	}
	return skipped, nil
}

func addOp(m map[uint64]map[*partition][]int, tid uint64, p *partition, id int) {
	if m[tid] == nil {
		m[tid] = map[*partition][]int{}
	}
	m[tid][p] = append(m[tid][p], id)
}

// restoreSavepointBranches re-registers in-doubt branches persisted by the
// savepoint, unless the WAL suffix shows them resolved since.
func (e *Engine) restoreSavepointBranches(m *spManifest, out walOutcomes) error {
	for _, b := range m.Branch {
		if out.resolved[b.TID] {
			continue
		}
		cid := b.CID
		if c, ok := out.committed[b.TID]; ok {
			cid = c
		}
		if b.Table != "" {
			t, err := e.table(b.Table)
			if err == nil {
				ins := map[*partition][]int{}
				del := map[*partition][]int{}
				for _, ei := range b.Ins {
					if ei.Part >= 0 && ei.Part < len(t.parts) {
						ins[t.parts[ei.Part]] = ei.IDs
					}
				}
				for _, ed := range b.Del {
					if ed.Part >= 0 && ed.Part < len(t.parts) {
						del[t.parts[ed.Part]] = ed.IDs
					}
				}
				t.part2pc.restoreOps(b.TID, ins, del)
			}
		}
		e.mgr.MarkInDoubt(b.TID, b.Participant, cid)
	}
	return nil
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
