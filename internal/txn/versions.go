package txn

import (
	"sort"
	"sync"
)

// RowVersions tracks MVCC visibility for the rows of one table fragment.
// Each row id carries an insert stamp and an optional delete stamp; a stamp
// is either a commit ID (committed) or a transaction ID of an in-flight
// writer. Readers see a row when its insert is visible in their snapshot
// and its delete (if any) is not.
type RowVersions struct {
	mu sync.RWMutex

	// insCID holds 0 when the row was inserted by an in-flight txn (see
	// insTID).
	// hana:guardedby mu
	insCID []uint64
	// hana:guardedby mu
	insTID []uint64
	// delCID holds 0 when the row is not deleted (unless delTID is set).
	// hana:guardedby mu
	delCID []uint64
	// hana:guardedby mu
	delTID []uint64
	// pending lists, per in-flight transaction, the row ids it stamped, so
	// that commit and abort visit those rows and not the whole fragment. An
	// entry may be stale (the row since re-stamped); insTID/delTID decide.
	// hana:guardedby mu
	pending map[uint64][]int
}

// NewRowVersions creates an empty version store.
func NewRowVersions() *RowVersions { return &RowVersions{} }

// Len returns the number of tracked rows.
func (v *RowVersions) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.insCID)
}

// Insert registers a new row written by tid. Row ids must be appended in
// order.
func (v *RowVersions) Insert(rowID int, tid uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for len(v.insCID) <= rowID {
		v.insCID = append(v.insCID, 0)
		v.insTID = append(v.insTID, 0)
		v.delCID = append(v.delCID, 0)
		v.delTID = append(v.delTID, 0)
	}
	v.insTID[rowID] = tid
	v.noteLocked(rowID, tid)
}

// noteLocked records that in-flight tid stamped rowID.
func (v *RowVersions) noteLocked(rowID int, tid uint64) {
	if tid == 0 {
		return
	}
	if v.pending == nil {
		v.pending = map[uint64][]int{}
	}
	v.pending[tid] = append(v.pending[tid], rowID)
}

// InsertCommitted registers a row that is immediately visible (bulk loads
// outside transactions).
func (v *RowVersions) InsertCommitted(rowID int, cid uint64) {
	v.Insert(rowID, 0)
	v.mu.Lock()
	v.insCID[rowID] = cid
	v.insTID[rowID] = 0
	v.mu.Unlock()
}

// Delete stamps a row as deleted by tid. It returns ErrConflict when the
// row is already deleted (committed) or being deleted by another in-flight
// transaction — the platform's write-write conflict rule (first writer
// wins).
func (v *RowVersions) Delete(rowID int, tid uint64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if rowID >= len(v.insCID) {
		return ErrNotActive
	}
	if v.delCID[rowID] != 0 {
		return ErrConflict
	}
	if v.delTID[rowID] != 0 && v.delTID[rowID] != tid {
		return ErrConflict
	}
	if v.delTID[rowID] != tid {
		v.delTID[rowID] = tid
		v.noteLocked(rowID, tid)
	}
	return nil
}

// CommitTID stamps every change of tid with the commit ID.
func (v *RowVersions) CommitTID(tid, cid uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, i := range v.pending[tid] {
		if v.insTID[i] == tid {
			v.insTID[i] = 0
			v.insCID[i] = cid
		}
		if v.delTID[i] == tid {
			v.delTID[i] = 0
			v.delCID[i] = cid
		}
	}
	delete(v.pending, tid)
}

// AbortTID reverts every change of tid. Aborted inserts become permanently
// invisible.
func (v *RowVersions) AbortTID(tid uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, i := range v.pending[tid] {
		if v.insTID[i] == tid {
			v.insTID[i] = 0
			v.insCID[i] = ^uint64(0) // never visible
		}
		if v.delTID[i] == tid {
			v.delTID[i] = 0
		}
	}
	delete(v.pending, tid)
}

// Visible reports whether rowID is visible to a reader with the given
// snapshot CID and own transaction ID (0 for autonomous statements) — the
// point lookup; scans use VisibleIn.
func (v *RowVersions) Visible(rowID int, snapshot, tid uint64) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.visibleLocked(rowID, snapshot, tid)
}

// VisibleIn refines a batch's selection under one read lock. The batch holds
// the n rows whose ids start at base; sel lists the offsets still live (nil
// = all n). It returns, ascending, the offsets whose rows the reader sees.
func (v *RowVersions) VisibleIn(base, n int, sel []int32, snapshot, tid uint64) []int32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if sel != nil {
		n = len(sel)
	}
	out := make([]int32, 0, n)
	for k := 0; k < n; k++ {
		r := int32(k)
		if sel != nil {
			r = sel[k]
		}
		if v.visibleLocked(base+int(r), snapshot, tid) {
			out = append(out, r)
		}
	}
	return out
}

func (v *RowVersions) visibleLocked(rowID int, snapshot, tid uint64) bool {
	if rowID >= len(v.insCID) {
		return false
	}
	insVisible := false
	if v.insTID[rowID] != 0 {
		insVisible = tid != 0 && v.insTID[rowID] == tid // own uncommitted write
	} else {
		insVisible = v.insCID[rowID] != 0 && v.insCID[rowID] <= snapshot
	}
	if !insVisible {
		return false
	}
	if v.delTID[rowID] != 0 {
		return !(tid != 0 && v.delTID[rowID] == tid) // own delete hides it
	}
	return v.delCID[rowID] == 0 || v.delCID[rowID] > snapshot
}

// VersionSnapshot is a copyable export of a RowVersions state — the
// per-partition visibility vector a savepoint persists and recovery
// restores.
type VersionSnapshot struct {
	InsCID []uint64
	InsTID []uint64
	DelCID []uint64
	DelTID []uint64
}

// Export copies the version state.
func (v *RowVersions) Export() VersionSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return VersionSnapshot{
		InsCID: append([]uint64(nil), v.insCID...),
		InsTID: append([]uint64(nil), v.insTID...),
		DelCID: append([]uint64(nil), v.delCID...),
		DelTID: append([]uint64(nil), v.delTID...),
	}
}

// Import replaces the version state with a previously exported snapshot.
func (v *RowVersions) Import(s VersionSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.insCID = append([]uint64(nil), s.InsCID...)
	v.insTID = append([]uint64(nil), s.InsTID...)
	v.delCID = append([]uint64(nil), s.DelCID...)
	v.delTID = append([]uint64(nil), s.DelTID...)
	v.pending = nil
	for i := range v.insTID {
		v.noteLocked(i, v.insTID[i])
		if v.delTID[i] != v.insTID[i] {
			v.noteLocked(i, v.delTID[i])
		}
	}
}

// PendingTIDs lists the distinct transaction IDs that still hold
// uncommitted stamps, sorted. After recovery's outcome pass, any TID left
// here that is not in-doubt belongs to a transaction the crash cut short —
// it must be aborted.
func (v *RowVersions) PendingTIDs() []uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	seen := map[uint64]bool{}
	for i := range v.insTID {
		if v.insTID[i] != 0 {
			seen[v.insTID[i]] = true
		}
		if v.delTID[i] != 0 {
			seen[v.delTID[i]] = true
		}
	}
	out := make([]uint64, 0, len(seen))
	for tid := range seen {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveCount counts rows visible at the snapshot (tid 0).
func (v *RowVersions) LiveCount(snapshot uint64) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	count := 0
	for i := range v.insCID {
		if v.visibleLocked(i, snapshot, 0) {
			count++
		}
	}
	return count
}
