package dist

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hana/internal/value"
)

// TestWorkerStressKillReviveReseed hammers the exact surface the guardedby
// annotations cover: Worker.mu-guarded shard state and the replicas'
// version stamps, under concurrent queries, kill/revive cycles, idempotent
// reseeds and a live 2PC stream. Run under -race (make race) this is the
// dynamic counterpart to the static field-discipline checks.
func TestWorkerStressKillReviveReseed(t *testing.T) {
	topo := Topology{Shards: 3, Replicas: 2}
	const rows = 90
	tr := seedFleet(t, topo, rows, false)
	c := &Coordinator{Topo: topo, Transport: tr, Caller: testCaller()}

	iters := 40
	if testing.Short() {
		iters = 8
	}

	reseed := func(owner int) {
		// Replays the seedFleet data (same seqs, same cid): idempotent by
		// contract, so it can race with queries without changing results.
		w := tr.Worker(owner)
		for i := 0; i < rows; i++ {
			row := intRow(int64(i), int64(i*10))
			shard := ShardOf(row[0], topo.Shards)
			for _, o := range topo.Owners(shard) {
				if o != owner {
					continue
				}
				err := w.LoadCommitted("T", shard, []int64{int64(i)}, []value.Row{row.Clone()}, 1)
				if err != nil && !strings.Contains(err.Error(), "is down") {
					t.Errorf("reseed worker %d: %v", owner, err)
				}
			}
		}
	}

	var (
		wg        sync.WaitGroup
		gathers   int64
		failovers int64
	)
	// Two query loops: every gather must succeed (only worker 1 ever dies,
	// and every shard has a surviving replica) and return the full table.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frag := &Fragment{Snapshot: 1, Table: "T", Binding: "T"}
			for i := 0; i < iters; i++ {
				res, err := c.Gather(context.Background(), frag, 0)
				if err != nil {
					t.Errorf("gather %d: %v", i, err)
					return
				}
				if res.Len() != rows {
					t.Errorf("gather %d: %d rows, want %d", i, res.Len(), rows)
					return
				}
				atomic.AddInt64(&gathers, 1)
				atomic.AddInt64(&failovers, int64(res.Failovers))
			}
		}()
	}
	// Chaos loop: kill and revive worker 1 (replica coverage keeps every
	// shard reachable throughout).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			tr.Worker(1).Kill()
			// Hold the dead state across a few scheduler quanta so the
			// query loops actually observe it and fail over.
			for y := 0; y < 50; y++ {
				runtime.Gosched()
			}
			tr.Worker(1).Revive()
			for y := 0; y < 10; y++ {
				runtime.Gosched()
			}
		}
	}()
	// Reseed loop: idempotent replays against live and dying workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reseed(i % topo.Shards)
		}
	}()
	// 2PC loop against worker 2 (never killed): two transactions at a time
	// write ascending sequences, appended to under the scans, and resolve in
	// the reverse order; the even ones commit at cids above the query
	// snapshot, the odd ones abort.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := tr.Worker(2)
		for i := 0; i < iters; i += 2 {
			for _, k := range []int{i, i + 1} {
				seq := int64(1_000_000 + k)
				w.Insert(uint64(1000+k), "T", 2, seq, intRow(seq, 0))
			}
			for _, k := range []int{i + 1, i} {
				tid := uint64(1000 + k)
				if err := w.Prepare(tid); err != nil {
					t.Errorf("prepare %d: %v", tid, err)
					return
				}
				if k%2 == 0 {
					if err := w.Commit(tid, uint64(2+k)); err != nil {
						t.Errorf("commit %d: %v", tid, err)
						return
					}
				} else if err := w.Abort(tid); err != nil {
					t.Errorf("abort %d: %v", tid, err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced invariants: the snapshot-1 view is untouched by the churn,
	// and exactly the committed half of the 2PC stream is visible above it.
	tr.Worker(1).Revive()
	res, err := c.Gather(context.Background(), &Fragment{Snapshot: 1, Table: "T", Binding: "T"}, 0)
	if err != nil || res.Len() != rows {
		t.Fatalf("final gather: %v, %+v", err, res)
	}
	for i, row := range mergedRows(res) {
		if row[0].I != int64(i) {
			t.Fatalf("row %d out of order after stress: %v", i, row)
		}
	}
	committed := (iters + 1) / 2
	base := tr.Worker(2).ShardRowCount("T", 2, 1)
	if got := tr.Worker(2).ShardRowCount("T", 2, uint64(2+iters)); got != base+committed {
		t.Fatalf("committed inserts visible = %d, want %d (+%d base)", got, base+committed, base)
	}
	t.Logf("stress: %d gathers, %d failovers", gathers, failovers)
}
