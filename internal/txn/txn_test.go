package txn

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"hana/internal/faults"
)

// fakePart is a scripted participant.
type fakePart struct {
	name       string
	prepareErr error
	commitErr  error
	mu         sync.Mutex
	prepared   []uint64
	committed  []uint64
	aborted    []uint64
}

func (f *fakePart) Name() string { return f.name }
func (f *fakePart) Prepare(tid uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.prepareErr != nil {
		return f.prepareErr
	}
	f.prepared = append(f.prepared, tid)
	return nil
}
func (f *fakePart) Commit(tid, cid uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.commitErr != nil {
		err := f.commitErr
		f.commitErr = nil
		return err
	}
	f.committed = append(f.committed, tid)
	return nil
}
func (f *fakePart) Abort(tid uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborted = append(f.aborted, tid)
	return nil
}

func TestCommitAssignsMonotonicCIDs(t *testing.T) {
	m := NewManager(nil)
	t1 := m.Begin()
	t2 := m.Begin()
	c1, err := m.CommitCtx(context.Background(), t1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.CommitCtx(context.Background(), t2)
	if err != nil {
		t.Fatal(err)
	}
	if c2 <= c1 {
		t.Fatalf("cids not monotonic: %d %d", c1, c2)
	}
	if m.ActiveCount() != 0 {
		t.Fatal("active txns remain")
	}
}

func TestSnapshotIsolationOrdering(t *testing.T) {
	m := NewManager(nil)
	t1 := m.Begin()
	snap1 := t1.Snapshot
	cid, _ := m.CommitCtx(context.Background(), t1)
	t2 := m.Begin()
	if t2.Snapshot < cid {
		t.Fatal("later txn must see earlier commit")
	}
	if snap1 >= cid {
		t.Fatal("snapshot must precede own commit id")
	}
}

func TestTwoPhaseCommitHappyPath(t *testing.T) {
	m := NewManager(nil)
	p := &fakePart{name: "extstore"}
	tx := m.Begin()
	tx.Enlist(p)
	tx.Enlist(p) // duplicate enlist is a no-op
	cid, err := m.CommitCtx(context.Background(), tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.prepared) != 1 || len(p.committed) != 1 {
		t.Fatalf("prepare=%v commit=%v", p.prepared, p.committed)
	}
	if cid == 0 || tx.State() != StateCommitted {
		t.Fatal("commit state")
	}
}

func TestPrepareFailureAbortsAll(t *testing.T) {
	m := NewManager(nil)
	good := &fakePart{name: "good"}
	bad := &fakePart{name: "bad", prepareErr: errors.New("disk full")}
	tx := m.Begin()
	tx.Enlist(good)
	tx.Enlist(bad)
	undone := false
	tx.OnAbort(func() { undone = true })
	if _, err := m.CommitCtx(context.Background(), tx); err == nil {
		t.Fatal("commit must fail")
	}
	if tx.State() != StateAborted || !undone {
		t.Fatal("abort not propagated")
	}
	if len(good.aborted) != 1 {
		t.Fatal("previously-prepared participant must be aborted")
	}
	if len(good.committed) != 0 {
		t.Fatal("nothing may commit")
	}
}

func TestCommitPhaseFailureLeavesInDoubt(t *testing.T) {
	m := NewManager(nil)
	p := &fakePart{name: "extstore", commitErr: errors.New("network down")}
	tx := m.Begin()
	tx.Enlist(p)
	cid, err := m.CommitCtx(context.Background(), tx)
	if err != nil {
		t.Fatalf("decision was commit; coordinator must not fail: %v", err)
	}
	if cid == 0 {
		t.Fatal("cid must be assigned")
	}
	ind := m.InDoubt()
	if ind[tx.TID] != "extstore" {
		t.Fatalf("in-doubt = %v", ind)
	}
	// Manual resolution re-delivers the commit.
	if err := m.Resolve(tx.TID, true, []Participant{p}); err != nil {
		t.Fatal(err)
	}
	if len(m.InDoubt()) != 0 || len(p.committed) != 1 {
		t.Fatal("resolution failed")
	}
	if err := m.Resolve(tx.TID, true, []Participant{p}); err == nil {
		t.Fatal("resolving a resolved txn must error")
	}
}

func TestAbortRunsUndoInReverseOrder(t *testing.T) {
	m := NewManager(nil)
	tx := m.Begin()
	var order []int
	tx.OnAbort(func() { order = append(order, 1) })
	tx.OnAbort(func() { order = append(order, 2) })
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("undo order = %v", order)
	}
	if err := m.Abort(tx); err == nil {
		t.Fatal("double abort must error")
	}
	if _, err := m.CommitCtx(context.Background(), tx); err == nil {
		t.Fatal("commit after abort must error")
	}
}

func TestInjectedFailures(t *testing.T) {
	m := NewManager(nil)
	inj := faults.New(1)
	m.SetInjector(inj)
	p := &fakePart{name: "ext"}
	inj.FailN("txn.prepare.ext", 1)
	tx := m.Begin()
	tx.Enlist(p)
	if _, err := m.CommitCtx(context.Background(), tx); err == nil {
		t.Fatal("injected prepare failure must abort")
	}
	inj.FailN("txn.commit.ext", 1)
	tx2 := m.Begin()
	tx2.Enlist(p)
	if _, err := m.CommitCtx(context.Background(), tx2); err != nil {
		t.Fatal(err)
	}
	if len(m.InDoubt()) != 1 {
		t.Fatal("injected commit failure must leave in-doubt")
	}
	// The injected schedule is drained: resolution re-delivers the commit.
	if err := m.Resolve(tx2.TID, true, []Participant{p}); err != nil {
		t.Fatal(err)
	}
	if len(m.InDoubt()) != 0 {
		t.Fatal("resolve must drain the in-doubt branch")
	}

	// Abort-side resolution is guarded by its own fault site: a failed
	// abort delivery keeps the branch in-doubt until a retry lands.
	inj.FailN("txn.commit.ext", 1)
	tx3 := m.Begin()
	tx3.Enlist(p)
	if _, err := m.CommitCtx(context.Background(), tx3); err != nil {
		t.Fatal(err)
	}
	if len(m.InDoubt()) != 1 {
		t.Fatal("injected commit failure must leave in-doubt")
	}
	inj.FailN("txn.abort.ext", 1)
	if err := m.Resolve(tx3.TID, false, []Participant{p}); err == nil {
		t.Fatal("injected abort failure must surface")
	}
	if len(m.InDoubt()) != 1 {
		t.Fatal("failed abort delivery must keep the branch in-doubt")
	}
	if err := m.Resolve(tx3.TID, false, []Participant{p}); err != nil {
		t.Fatal(err)
	}
	if len(m.InDoubt()) != 0 {
		t.Fatal("abort resolution must drain the in-doubt branch")
	}
	if len(p.aborted) != 1 || p.aborted[0] != tx3.TID {
		t.Fatalf("participant abort deliveries = %v", p.aborted)
	}
}

func TestWALReplayAndRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(log)
	t1 := m.Begin()
	cid1, _ := m.CommitCtx(context.Background(), t1)
	t2 := m.Begin()
	_ = m.Abort(t2)
	p := &fakePart{name: "ext", commitErr: errors.New("down")}
	t3 := m.Begin()
	t3.Enlist(p)
	_, _ = m.CommitCtx(context.Background(), t3) // leaves t3 in-doubt
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover from the log.
	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	m2, err := Recover(log2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.LastCID() < cid1 {
		t.Fatalf("recovered lastCID %d < %d", m2.LastCID(), cid1)
	}
	if got := m2.InDoubtInfo(); len(got) != 1 || got[0].TID != t3.TID || got[0].Participant != "ext" {
		t.Fatalf("recovered in-doubt = %v", got)
	}
	// New TIDs must not collide.
	t4 := m2.Begin()
	if t4.TID <= t3.TID {
		t.Fatalf("tid reuse: %d <= %d", t4.TID, t3.TID)
	}
}

func TestMemLog(t *testing.T) {
	log := NewMemLog()
	if err := log.Append(Record{Type: RecBegin, TID: 7}); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(Record{Type: RecCommit, TID: 7, CID: 9}); err != nil {
		t.Fatal(err)
	}
	var types []RecordType
	_ = log.Replay(func(r Record) error {
		types = append(types, r.Type)
		return nil
	})
	if len(types) != 2 || types[1] != RecCommit {
		t.Fatalf("mem log replay = %v", types)
	}
}

func TestRowVersionsVisibility(t *testing.T) {
	v := NewRowVersions()
	// Row 0: committed at CID 5.
	v.InsertCommitted(0, 5)
	// Row 1: in-flight insert by TID 100.
	v.Insert(1, 100)
	if !v.Visible(0, 5, 0) || v.Visible(0, 4, 0) {
		t.Fatal("committed insert visibility by snapshot")
	}
	if v.Visible(1, 10, 0) {
		t.Fatal("uncommitted insert visible to others")
	}
	if !v.Visible(1, 10, 100) {
		t.Fatal("own uncommitted insert must be visible")
	}
	v.CommitTID(100, 7)
	if !v.Visible(1, 7, 0) || v.Visible(1, 6, 0) {
		t.Fatal("post-commit visibility")
	}
}

func TestRowVersionsDeleteAndConflict(t *testing.T) {
	v := NewRowVersions()
	v.InsertCommitted(0, 1)
	if err := v.Deletable(0, 50); err != nil || !v.Delete(0, 50) {
		t.Fatal(err)
	}
	// Second in-flight deleter conflicts.
	if err := v.Deletable(0, 51); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict expected, got %v", err)
	}
	// Own re-delete is idempotent.
	if err := v.Deletable(0, 50); err != nil || !v.Delete(0, 50) {
		t.Fatal("own delete must not conflict")
	}
	// Deleter sees the row as gone; others still see it.
	if v.Visible(0, 10, 50) {
		t.Fatal("own delete must hide row")
	}
	if !v.Visible(0, 10, 0) {
		t.Fatal("uncommitted delete must not hide row from others")
	}
	v.CommitTID(50, 9)
	if v.Visible(0, 9, 0) || !v.Visible(0, 8, 0) {
		t.Fatal("committed delete snapshot visibility")
	}
	// Deleting an already-deleted row conflicts, and stamps nothing.
	if err := v.Deletable(0, 60); !errors.Is(err, ErrConflict) || v.Delete(0, 60) {
		t.Fatal("delete of deleted row must conflict")
	}
	if err := v.Deletable(1, 60); !errors.Is(err, ErrNotActive) {
		t.Fatalf("delete past the tracked rows: %v", err)
	}
}

// Delete checks no conflict: a logged delete re-applied by recovery takes
// the row over the stamp of a transaction that did not commit, which then
// neither commits nor reverts it.
func TestRowVersionsDeleteTakesOverAStamp(t *testing.T) {
	v := NewRowVersions()
	v.InsertCommitted(0, 1)
	v.Delete(0, 10)
	if !v.Delete(0, 11) {
		t.Fatal("delete over an in-flight stamp stamped nothing")
	}
	v.AbortTID(10)
	v.CommitTID(11, 5)
	if v.Visible(0, 5, 0) || !v.Visible(0, 4, 0) {
		t.Fatal("the delete that took the row over must commit it")
	}
}

// A version holds its key against a writer unless its insert aborted or its
// delete committed or is the writer's own; another writer's stamp is a
// conflict.
func TestRowVersionsHoldsKey(t *testing.T) {
	v := NewRowVersions()
	v.InsertCommitted(0, 1) // live
	v.InsertCommitted(1, 1) // deleted by 10, in flight
	v.Delete(1, 10)
	v.Insert(2, 10)         // inserted by 10, in flight
	v.Insert(3, 11)         // aborted
	v.InsertCommitted(4, 1) // deleted, committed
	v.Delete(4, 12)
	v.Insert(6, 0) // rows 5 and 6 have no version
	v.AbortTID(11)
	v.CommitTID(12, 2)
	for _, c := range []struct {
		row  int
		tid  uint64
		held bool
		err  error
	}{
		{0, 20, true, nil}, {0, 0, true, nil},
		{1, 20, false, ErrConflict}, {1, 10, false, nil},
		{2, 20, false, ErrConflict}, {2, 10, true, nil},
		{3, 20, false, nil}, {4, 20, false, nil}, {5, 20, false, nil}, {7, 20, false, nil},
	} {
		held, err := v.HoldsKey(c.row, c.tid)
		if held != c.held || !errors.Is(err, c.err) {
			t.Errorf("row %d against %d: held %v, %v; want %v, %v", c.row, c.tid, held, err, c.held, c.err)
		}
	}
}

func TestRowVersionsAbort(t *testing.T) {
	v := NewRowVersions()
	v.Insert(0, 10)
	v.InsertCommitted(1, 1)
	_ = v.Delete(1, 10)
	v.AbortTID(10)
	if v.Visible(0, 100, 0) || v.Visible(0, 100, 10) {
		t.Fatal("aborted insert must never be visible")
	}
	if !v.Visible(1, 100, 0) {
		t.Fatal("aborted delete must restore row")
	}
	// Row can be deleted again after the abort.
	if err := v.Deletable(1, 11); err != nil {
		t.Fatal(err)
	}
}

// Commit and abort visit the rows a transaction stamped, not the fragment:
// the stamps of an imported snapshot, of a row another writer re-stamped and
// of interleaved writers must resolve exactly as a full sweep would.
func TestRowVersionsCommitVisitsOnlyOwnRows(t *testing.T) {
	v := NewRowVersions()
	for i := 0; i < 6; i++ {
		v.InsertCommitted(i, 1)
	}
	v.Insert(6, 10)
	v.Insert(7, 11)
	_ = v.Delete(0, 10)
	_ = v.Delete(1, 11)
	_ = v.Delete(2, 12)

	// A recovered fragment starts from an imported snapshot.
	r := NewRowVersions()
	r.Import(v.Export())
	if got := r.PendingTIDs(); len(got) != 3 || got[0] != 10 || got[2] != 12 {
		t.Fatalf("pending after import = %v", got)
	}
	r.CommitTID(10, 5)
	r.AbortTID(11)
	if !r.Visible(6, 5, 0) || r.Visible(0, 5, 0) {
		t.Fatal("commit of an imported writer must stamp its insert and its delete")
	}
	if r.Visible(7, 9, 0) || !r.Visible(1, 9, 0) {
		t.Fatal("abort of an imported writer must hide its insert and restore its delete")
	}
	if got := r.PendingTIDs(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("pending after outcomes = %v", got)
	}

	// Row 8 is stamped by 20, then again by 21: 20's outcome leaves it alone.
	v.Insert(8, 20)
	v.Insert(8, 21)
	v.CommitTID(20, 6)
	if v.Visible(8, 9, 0) || !v.Visible(8, 9, 21) {
		t.Fatal("a re-stamped row belongs to its last writer")
	}
	v.CommitTID(21, 7)
	if !v.Visible(8, 7, 0) {
		t.Fatal("last writer's commit must stamp the row")
	}
	// Committing the same transaction twice is a no-op.
	v.CommitTID(21, 8)
	if !v.Visible(8, 7, 0) {
		t.Fatal("second commit must not move the stamp")
	}
}

// The stamp encoding's edges: commit ID 7 and TID 7 in flight are two
// stamps, an aborted insert is invisible at every snapshot and pending for
// no transaction, and an in-flight stamp of TID 0 is refused by Check.
func TestRowVersionsEncodingEdges(t *testing.T) {
	v := NewRowVersions()
	v.InsertCommitted(0, 7)
	v.Insert(1, 7)
	v.Insert(2, 8)
	v.AbortTID(8)
	for _, c := range []struct {
		row       int
		snap, tid uint64
		want      bool
	}{
		{0, 7, 0, true}, {0, 6, 0, false}, {0, 6, 7, false},
		{1, 7, 0, false}, {1, ^uint64(0), 0, false}, {1, 0, 7, true},
		{2, 8, 0, false}, {2, 1<<63 - 1, 0, false}, {2, ^uint64(0), 0, false}, {2, ^uint64(0), 8, false},
	} {
		if got := v.Visible(c.row, c.snap, c.tid); got != c.want {
			t.Errorf("row %d at snapshot %d for tid %d: visible %v", c.row, c.snap, c.tid, got)
		}
	}
	if held, err := v.HoldsKey(2, 9); held || err != nil {
		t.Errorf("aborted row holds its key: %v, %v", held, err)
	}
	s := v.Export()
	if want := []uint64{7, 1<<63 | 7, 1<<64 - 1}; !slices.Equal(s.Ins, want) || !slices.Equal(s.Del, []uint64{0, 0, 0}) {
		t.Fatalf("exported %x / %x, want %x / 0", s.Ins, s.Del, want)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	r := NewRowVersions()
	r.Import(s)
	if got := r.PendingTIDs(); !slices.Equal(got, []uint64{7}) {
		t.Fatalf("pending after import = %v", got)
	}
	for name, bad := range map[string]VersionSnapshot{
		"TID 0 inserting": {Ins: []uint64{1 << 63}, Del: []uint64{0}},
		"TID 0 deleting":  {Ins: []uint64{7}, Del: []uint64{1 << 63}},
		"short Del":       {Ins: []uint64{7}},
	} {
		if err := bad.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", name, bad)
		}
	}
}

func TestLiveCount(t *testing.T) {
	v := NewRowVersions()
	for i := 0; i < 10; i++ {
		v.InsertCommitted(i, uint64(i+1))
	}
	_ = v.Delete(3, 99)
	v.CommitTID(99, 20)
	if got := v.LiveCount(20); got != 9 {
		t.Fatalf("live at 20 = %d", got)
	}
	if got := v.LiveCount(5); got != 5 {
		t.Fatalf("live at 5 = %d", got)
	}
	// The range form answers as the point lookups do: over a whole range,
	// over a selection, past the tracked rows, and for a writer's own rows.
	v.Insert(10, 7)
	_ = v.Delete(4, 7)
	for _, tid := range []uint64{0, 7} {
		for _, sel := range [][]int32{nil, {0, 1, 2, 5, 8, 9}} {
			var want []int32
			for r := int32(0); r < 10; r++ {
				if (sel == nil || slices.Contains(sel, r)) && v.Visible(2+int(r), 20, tid) {
					want = append(want, r)
				}
			}
			if got := v.VisibleIn(2, 10, sel, 20, tid); !slices.Equal(got, want) {
				t.Fatalf("VisibleIn(tid %d, sel %v) = %v, want %v", tid, sel, got, want)
			}
		}
	}
}

// blockingPart holds phase 2 until release is closed.
type blockingPart struct {
	entered, release chan struct{}
}

func (b *blockingPart) Name() string         { return "blocking" }
func (b *blockingPart) Prepare(uint64) error { return nil }
func (b *blockingPart) Abort(uint64) error   { return nil }
func (b *blockingPart) Commit(_, _ uint64) error {
	close(b.entered)
	<-b.release
	return nil
}

// A commit returns only once a snapshot reaches its commit ID, even while an
// older commit is still in phase 2: the session's next statement sees its
// own write.
func TestCommitReturnsVisibleBehindOlderPhaseTwo(t *testing.T) {
	m := NewManager(nil)
	ctx := context.Background()
	older, newer := m.Begin(), m.Begin()
	b := &blockingPart{entered: make(chan struct{}), release: make(chan struct{})}
	older.Enlist(b)
	olderDone := make(chan error, 1)
	go func() {
		_, err := m.CommitCtx(ctx, older)
		olderDone <- err
	}()
	<-b.entered
	type seen struct{ cid, snap uint64 }
	newerDone := make(chan seen, 1)
	go func() {
		cid, err := m.CommitCtx(ctx, newer)
		if err != nil {
			t.Error(err)
		}
		newerDone <- seen{cid, m.LastCID()}
	}()
	var s seen
	select {
	case s = <-newerDone: // returned while the older commit is held
	case <-time.After(50 * time.Millisecond):
	}
	close(b.release)
	if s == (seen{}) {
		s = <-newerDone
	}
	if s.snap < s.cid {
		t.Fatalf("commit %d returned with snapshot %d", s.cid, s.snap)
	}
	if err := <-olderDone; err != nil {
		t.Fatal(err)
	}
}
