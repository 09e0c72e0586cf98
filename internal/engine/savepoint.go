package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hana/internal/txn"
	"hana/internal/value"
)

// Savepoints (checkpoints): a consistent snapshot of every stored table —
// physical rows of the in-memory partitions, MVCC version vectors (a cold
// partition's tail is flushed first, so its vector names stored rows only),
// catalog metadata, coordinator watermarks and the in-doubt 2PC branches —
// written as of a single WAL position S. Recovery loads the newest
// savepoint and replays only the WAL suffix past S; after a successful
// install the WAL is truncated behind S.
//
// On-disk layout under the engine's data directory:
//
//	sp_<S hex>/manifest.json   spManifest
//	sp_<S hex>/t<i>_p<j>.rows  wire-encoded physical rows of partition j
//	CURRENT                    name of the active savepoint directory
//
// The snapshot phase holds the savepoint barrier exclusively, so every
// commit/abort whose record has LSN ≤ S is fully stamped in the exported
// version vectors (see Engine.spMu). File writes, install and truncation
// happen outside the barrier.

// spManifest is the persisted savepoint metadata.
type spManifest struct {
	LSN     uint64     `json:"lsn"`      // WAL position the snapshot is consistent with
	NextTID uint64     `json:"next_tid"` // coordinator watermarks at S
	LastCID uint64     `json:"last_cid"`
	Tables  []spTable  `json:"tables"`
	Branch  []spBranch `json:"in_doubt"` // in-doubt 2PC branches at S
}

type spTable struct {
	Meta  json.RawMessage `json:"meta"` // catalog.TableMeta
	Parts []spPart        `json:"parts"`
}

type spPart struct {
	Idx  int                 `json:"idx"`
	Rows int                 `json:"rows"`           // physical rows in File
	File string              `json:"file,omitempty"` // "" for extended partitions (rows live in the diskstore)
	Vers txn.VersionSnapshot `json:"vers"`
}

// check rejects an entry recovery could not restore: RowVersions.Import
// indexes all four version vectors by InsTID's length, and a partition
// restored from a row file has one version entry per row.
func (sp *spPart) check() error {
	v := &sp.Vers
	n := len(v.InsTID)
	switch {
	case sp.Rows < 0:
		return fmt.Errorf("negative row count %d", sp.Rows)
	case len(v.InsCID) != n || len(v.DelCID) != n || len(v.DelTID) != n:
		return fmt.Errorf("version vectors of lengths %d, %d, %d, %d", len(v.InsCID), n, len(v.DelCID), len(v.DelTID))
	case sp.File != "" && n != sp.Rows:
		return fmt.Errorf("%d version entries for %d rows", n, sp.Rows)
	}
	return nil
}

// spBranch is an in-doubt 2PC branch. Its writes need no listing: the
// cold partitions' exported vectors carry them as TID stamps.
type spBranch struct {
	TID         uint64 `json:"tid"`
	Participant string `json:"participant"`
	CID         uint64 `json:"cid,omitempty"` // decided commit ID; 0 = presumed abort
}

// savepointWriter writes one savepoint artifact; Close syncs the file to
// disk before releasing the handle, so a renamed-in savepoint never has
// half-written members.
type savepointWriter struct {
	f *os.File
}

func newSavepointWriter(path string) (*savepointWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &savepointWriter{f: f}, nil
}

func (w *savepointWriter) Write(b []byte) (int, error) { return w.f.Write(b) }

// Close syncs and closes the underlying file.
func (w *savepointWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// spSnapshot is the in-memory capture taken under the barrier; files are
// written from it afterwards.
type spSnapshot struct {
	manifest spManifest
	rowFiles map[string][]byte // file name -> encoded rows
}

// Savepoint writes a consistent snapshot of the engine's durable state and
// truncates the WAL behind it. It returns the WAL position S the savepoint
// is consistent with. Injector sites: checkpoint.snapshot, checkpoint.write,
// checkpoint.install, checkpoint.truncate.
func (e *Engine) Savepoint() (uint64, error) {
	if e.wal == nil || e.dataDir == "" {
		return 0, fmt.Errorf("savepoint requires a durable engine (Open with DataDir)")
	}
	if err := e.cfg.Faults.Check("checkpoint.snapshot"); err != nil {
		return 0, fmt.Errorf("savepoint snapshot: %w", err)
	}
	snap, err := e.captureSnapshot()
	if err != nil {
		return 0, err
	}
	s := snap.manifest.LSN
	if err := e.writeSavepoint(snap); err != nil {
		return 0, err
	}
	if err := e.cfg.Faults.Check("checkpoint.truncate"); err != nil {
		return s, fmt.Errorf("savepoint truncate: %w", err)
	}
	if err := e.wal.TruncateBefore(s); err != nil {
		// The savepoint is installed; an un-truncated WAL only costs replay
		// time (replay is idempotent against the snapshot), so report but
		// keep the savepoint.
		return s, fmt.Errorf("savepoint WAL truncate: %w", err)
	}
	e.obs.Counter("wal.savepoints_total").Inc()
	e.obs.Gauge("wal.last_savepoint_lsn").Set(int64(s))
	return s, nil
}

// captureSnapshot freezes the engine under the savepoint barrier and copies
// everything the manifest needs.
func (e *Engine) captureSnapshot() (*spSnapshot, error) {
	e.spMu.Lock()
	defer e.spMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()

	snap := &spSnapshot{rowFiles: map[string][]byte{}}
	snap.manifest.LSN = e.wal.LastLSN()
	snap.manifest.NextTID = e.mgr.NextTID()
	snap.manifest.LastCID = e.mgr.LastCID()

	keys := make([]string, 0, len(e.tables))
	for k := range e.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for ti, k := range keys {
		t := e.tables[k]
		t.mu.Lock()
		meta, err := marshalTableMeta(t.meta)
		if err != nil {
			t.mu.Unlock()
			return nil, err
		}
		st := spTable{Meta: meta}
		for pi, p := range t.parts {
			if p.ext != nil {
				// The vector may name rows only the cold tail holds yet.
				if err := p.ext.Flush(); err != nil {
					t.mu.Unlock()
					return nil, err
				}
			}
			sp := spPart{Idx: pi, Vers: p.vers.Export()}
			if p.ext == nil {
				var buf []byte
				n := 0
				collect := func(id int, row value.Row) bool {
					buf = value.AppendRow(buf, row)
					n++
					return true
				}
				if err := p.scan(collect); err != nil {
					t.mu.Unlock()
					return nil, err
				}
				sp.Rows = n
				sp.File = fmt.Sprintf("t%d_p%d.rows", ti, pi)
				snap.rowFiles[sp.File] = buf
			}
			st.Parts = append(st.Parts, sp)
		}
		t.mu.Unlock()
		snap.manifest.Tables = append(snap.manifest.Tables, st)
	}

	for _, b := range e.mgr.InDoubtInfo() {
		snap.manifest.Branch = append(snap.manifest.Branch, spBranch{TID: b.TID, Participant: b.Participant, CID: b.CID})
	}
	return snap, nil
}

// writeSavepoint persists a captured snapshot: tmp dir, synced members,
// atomic rename, CURRENT pointer swap, then GC of older savepoints.
func (e *Engine) writeSavepoint(snap *spSnapshot) error {
	name := fmt.Sprintf("sp_%016x", snap.manifest.LSN)
	tmp := filepath.Join(e.dataDir, name+".tmp")
	final := filepath.Join(e.dataDir, name)
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	writeMember := func(file string, data []byte) error {
		if err := e.cfg.Faults.Check("checkpoint.write"); err != nil {
			return fmt.Errorf("savepoint write %s: %w", file, err)
		}
		w, err := newSavepointWriter(filepath.Join(tmp, file))
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			_ = w.Close()
			return err
		}
		return w.Close()
	}
	files := make([]string, 0, len(snap.rowFiles))
	for f := range snap.rowFiles {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		if err := writeMember(f, snap.rowFiles[f]); err != nil {
			return err
		}
	}
	mf, err := json.MarshalIndent(&snap.manifest, "", " ")
	if err != nil {
		return err
	}
	if err := writeMember("manifest.json", mf); err != nil {
		return err
	}
	if err := e.cfg.Faults.Check("checkpoint.install"); err != nil {
		return fmt.Errorf("savepoint install: %w", err)
	}
	if err := os.RemoveAll(final); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	// CURRENT pointer swap, atomically via rename.
	curTmp := filepath.Join(e.dataDir, "CURRENT.tmp")
	w, err := newSavepointWriter(curTmp)
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte(name)); err != nil {
		_ = w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if err := os.Rename(curTmp, filepath.Join(e.dataDir, "CURRENT")); err != nil {
		return err
	}
	e.gcSavepoints(name)
	return nil
}

// gcSavepoints removes every savepoint directory except the active one.
// Best-effort: a leftover directory is unreferenced and harmless.
func (e *Engine) gcSavepoints(keep string) {
	entries, err := os.ReadDir(e.dataDir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		n := ent.Name()
		if !ent.IsDir() || !strings.HasPrefix(n, "sp_") || n == keep {
			continue
		}
		_ = os.RemoveAll(filepath.Join(e.dataDir, n))
	}
}

// startCheckpointer launches the background savepoint schedule when
// CheckpointEvery is set on a durable engine.
func (e *Engine) startCheckpointer() {
	if e.cfg.CheckpointEvery <= 0 || e.wal == nil || e.dataDir == "" {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.ckptStop = stop
	e.ckptDone = done
	go func() {
		defer close(done)
		tick := time.NewTicker(e.cfg.CheckpointEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := e.Savepoint(); err != nil {
					e.obs.Counter("wal.savepoint_errors_total").Inc()
				}
			}
		}
	}()
}

// stopCheckpointer stops the background schedule and waits for it.
func (e *Engine) stopCheckpointer() {
	if e.ckptStop == nil {
		return
	}
	close(e.ckptStop)
	<-e.ckptDone
	e.ckptStop = nil
	e.ckptDone = nil
}
