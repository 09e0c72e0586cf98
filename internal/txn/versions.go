package txn

import (
	"fmt"
	"sort"
	"sync"
)

// RowVersions tracks MVCC visibility for the rows of one table fragment.
// Each row id carries an insert stamp and a delete stamp, one word each. A
// stamp is a commit ID (committed), or a transaction ID with inFlight set
// (an in-flight writer's), or 0 (no insert yet; not deleted); an aborted
// insert holds the aborted sentinel. Readers see a row when its insert is
// visible in their snapshot and its delete (if any) is not.
type RowVersions struct {
	mu sync.RWMutex

	// hana:guardedby mu
	ins []uint64
	// hana:guardedby mu
	del []uint64
	// pending lists, per in-flight transaction, the row ids it stamped, so
	// that commit and abort visit those rows and not the whole fragment. An
	// entry may be stale (the row since re-stamped); the stamps decide.
	// hana:guardedby mu
	pending map[uint64][]int
}

const (
	// inFlight tags a stamp as a transaction ID: commit IDs stay below it.
	inFlight = uint64(1) << 63
	// aborted is the insert stamp of an aborted row. It is tagged, so no
	// snapshot reaches it, and names TID 2^63-1, which no writer reaches.
	aborted = ^uint64(0)
)

// stamp is the in-flight stamp of tid; tid 0 stamps nothing.
func stamp(tid uint64) uint64 {
	if tid == 0 {
		return 0
	}
	return tid | inFlight
}

// writer is the transaction an in-flight stamp names, 0 for any other.
func writer(s uint64) uint64 {
	if s&inFlight == 0 || s == aborted {
		return 0
	}
	return s &^ inFlight
}

// NewRowVersions creates an empty version store.
func NewRowVersions() *RowVersions { return &RowVersions{} }

// Len returns the number of tracked rows.
func (v *RowVersions) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.ins)
}

// Insert registers a new row written by tid. Row ids must be appended in
// order.
func (v *RowVersions) Insert(rowID int, tid uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.growLocked(rowID)
	v.ins[rowID] = stamp(tid)
	v.noteLocked(rowID, tid)
}

func (v *RowVersions) growLocked(rowID int) {
	for len(v.ins) <= rowID {
		v.ins = append(v.ins, 0)
		v.del = append(v.del, 0)
	}
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
	v.mu.Lock()
	defer v.mu.Unlock()
	v.growLocked(rowID)
	v.ins[rowID] = cid
}

// Deletable is the write-write conflict rule (first writer wins) a writer
// checks before it logs a delete: ErrConflict when the row's delete is
// committed or another in-flight transaction holds it.
func (v *RowVersions) Deletable(rowID int, tid uint64) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	switch {
	case rowID >= len(v.ins):
		return ErrNotActive
	case v.del[rowID] != 0 && v.del[rowID] != stamp(tid):
		return ErrConflict
	}
	return nil
}

// Delete stamps rowID deleted by tid unless its delete is committed, and
// reports whether it did. It checks no conflict (see Deletable): recovery
// stamps over a savepoint's stamp of a transaction that did not commit.
func (v *RowVersions) Delete(rowID int, tid uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	d := v.del[rowID]
	if d != 0 && d&inFlight == 0 {
		return false
	}
	if d != stamp(tid) {
		v.del[rowID] = stamp(tid)
		v.noteLocked(rowID, tid)
	}
	return true
}

// HoldsKey reports whether rowID's version holds its primary key against
// writer tid. Another in-flight transaction's insert or delete stamp is
// ErrConflict (first writer wins). Otherwise the version holds the key when
// tid would see it in a snapshot of every commit: not aborted, not deleted.
func (v *RowVersions) HoldsKey(rowID int, tid uint64) (bool, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if rowID < len(v.ins) {
		if w := writer(v.ins[rowID]); w != 0 && w != tid {
			return false, ErrConflict
		}
		if w := writer(v.del[rowID]); w != 0 && w != tid {
			return false, ErrConflict
		}
	}
	return v.visibleLocked(rowID, inFlight-1, stamp(tid)), nil
}

// CommitTID stamps every change of tid with the commit ID.
func (v *RowVersions) CommitTID(tid, cid uint64) { v.resolve(tid, cid, cid) }

// AbortTID reverts every change of tid. Aborted inserts become permanently
// invisible.
func (v *RowVersions) AbortTID(tid uint64) { v.resolve(tid, aborted, 0) }

// resolve replaces tid's insert stamps with ins and its delete stamps with
// del.
func (v *RowVersions) resolve(tid, ins, del uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := stamp(tid)
	for _, i := range v.pending[tid] {
		if v.ins[i] == s {
			v.ins[i] = ins
		}
		if v.del[i] == s {
			v.del[i] = del
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
	return v.visibleLocked(rowID, snapshot, stamp(tid))
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
	own := stamp(tid)
	for k := 0; k < n; k++ {
		r := int32(k)
		if sel != nil {
			r = sel[k]
		}
		if v.visibleLocked(base+int(r), snapshot, own) {
			out = append(out, r)
		}
	}
	return out
}

// visibleLocked is the visibility rule for a reader whose own writes carry
// stamp own (0 for autonomous statements).
func (v *RowVersions) visibleLocked(rowID int, snapshot, own uint64) bool {
	if rowID >= len(v.ins) {
		return false
	}
	if ins := v.ins[rowID]; ins&inFlight != 0 {
		if own == 0 || ins != own { // only its writer sees an uncommitted row
			return false
		}
	} else if ins == 0 || ins > snapshot {
		return false
	}
	del := v.del[rowID]
	if del&inFlight != 0 {
		return own == 0 || del != own // own delete hides it
	}
	return del == 0 || del > snapshot
}

// VersionSnapshot is a copyable export of a RowVersions state — the
// per-partition visibility vector a savepoint persists, recovery restores
// and a shard replica is seeded from: one insert and one delete stamp per
// row, encoded as RowVersions keeps them.
type VersionSnapshot struct {
	Ins []uint64
	Del []uint64
}

// Committed is the versions of n rows committed at cid and not deleted.
func Committed(n int, cid uint64) VersionSnapshot {
	v := VersionSnapshot{Ins: make([]uint64, n), Del: make([]uint64, n)}
	for i := range v.Ins {
		v.Ins[i] = cid
	}
	return v
}

// Check rejects a snapshot no RowVersions could have exported: vectors of
// two lengths, or an in-flight stamp naming TID 0.
func (s VersionSnapshot) Check() error {
	if len(s.Ins) != len(s.Del) {
		return fmt.Errorf("version vectors of lengths %d and %d", len(s.Ins), len(s.Del))
	}
	for i := range s.Ins {
		if s.Ins[i] == inFlight || s.Del[i] == inFlight {
			return fmt.Errorf("row %d: in-flight stamp of transaction 0", i)
		}
	}
	return nil
}

// Export copies the version state.
func (v *RowVersions) Export() VersionSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return VersionSnapshot{
		Ins: append([]uint64(nil), v.ins...),
		Del: append([]uint64(nil), v.del...),
	}
}

// Import replaces the version state with a previously exported snapshot,
// one that passes Check.
func (v *RowVersions) Import(s VersionSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.ins, v.del, v.pending = nil, nil, nil
	v.extendLocked(s)
}

// Extend appends a snapshot's rows, one that passes Check, after the
// tracked ones: their in-flight stamps resolve with their transactions.
func (v *RowVersions) Extend(s VersionSnapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.extendLocked(s)
}

func (v *RowVersions) extendLocked(s VersionSnapshot) {
	base := len(v.ins)
	v.ins, v.del = append(v.ins, s.Ins...), append(v.del, s.Del...)
	for i := base; i < len(v.ins); i++ {
		v.noteLocked(i, writer(v.ins[i]))
		if v.del[i] != v.ins[i] {
			v.noteLocked(i, writer(v.del[i]))
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
	for i := range v.ins {
		for _, s := range [2]uint64{v.ins[i], v.del[i]} {
			if w := writer(s); w != 0 {
				seen[w] = true
			}
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
	for i := range v.ins {
		if v.visibleLocked(i, snapshot, 0) {
			count++
		}
	}
	return count
}
