package txn

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentCommitAbort drives the coordinator from eight goroutines —
// half committing, half aborting — against one shared participant and a
// real file-backed WAL. Under `go test -race` this exercises the manager's
// TID/CID allocation, the participant registry, and the log writer; the
// assertions pin 2PC bookkeeping: every commit prepared and committed
// exactly once, every abort delivered, all CIDs unique.
func TestConcurrentCommitAbort(t *testing.T) {
	log, err := OpenLog(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(log)
	p := &fakePart{name: "shared"}

	const workers = 8
	const perWorker = 50
	cids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := m.Begin()
				tx.Enlist(p)
				if (g+i)%2 == 0 {
					cid, err := m.CommitCtx(context.Background(), tx)
					if err != nil {
						t.Error(err)
						return
					}
					cids[g] = append(cids[g], cid)
				} else if err := m.Abort(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	seen := map[uint64]bool{}
	commits := 0
	for _, list := range cids {
		for _, cid := range list {
			if seen[cid] {
				t.Fatalf("commit ID %d assigned twice", cid)
			}
			seen[cid] = true
			commits++
		}
	}
	p.mu.Lock()
	prepared, committed, aborted := len(p.prepared), len(p.committed), len(p.aborted)
	p.mu.Unlock()
	if prepared != commits || committed != commits {
		t.Fatalf("participant saw %d prepares / %d commits, want %d",
			prepared, committed, commits)
	}
	if aborted != workers*perWorker-commits {
		t.Fatalf("participant saw %d aborts, want %d",
			aborted, workers*perWorker-commits)
	}
}

// TestConcurrentRowVersionVisibility stresses one RowVersions store with
// concurrent inserters/committers and visibility readers — the MVCC hot
// path every scan takes.
func TestConcurrentRowVersionVisibility(t *testing.T) {
	v := NewRowVersions()
	const writers = 4
	const rowsPerWriter = 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rowsPerWriter; i++ {
				rowID := g*rowsPerWriter + i
				tid := uint64(1000 + rowID)
				v.Insert(rowID, tid)
				v.CommitTID(tid, uint64(2000+rowID))
			}
		}(g)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = v.LiveCount(^uint64(0))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := v.LiveCount(^uint64(0)); got != writers*rowsPerWriter {
		t.Fatalf("live rows = %d, want %d", got, writers*rowsPerWriter)
	}
}
