package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hana/internal/dist"
	"hana/internal/faults"
	"hana/internal/value"
)

// sameRowsDist fails unless the two results carry identical rows in
// identical order — the engine-level form of the byte-identity promise.
func sameRowsDist(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if value.Compare(got.Rows[i][j], want.Rows[i][j]) != 0 {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

func newDistEngine(t *testing.T, shards, rows int) *Engine {
	t.Helper()
	e := New(Config{Topology: dist.Topology{Shards: shards}})
	exec1(t, e, "CREATE TABLE T (A INT PRIMARY KEY, B INT, C VARCHAR)")
	for i := 0; i < rows; i++ {
		exec1(t, e, fmt.Sprintf("INSERT INTO T VALUES (%d, %d, 'v%d')", i, i*7, i%13))
	}
	return e
}

// The end-to-end distributed read path over a transactionally mirrored
// table: shipped scans, exactly-mergeable aggregates (COUNT DISTINCT
// included), broadcast joins, and post-DML state must all be byte-identical
// to the same statement pinned local on the same engine.
func TestDistExecutionMatchesLocal(t *testing.T) {
	e := newDistEngine(t, 3, 500)
	counts, err := e.DistShardCounts("T")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if want := 500 * e.Topology().ReplicaCount(); total != want {
		t.Fatalf("replica row placement: %v sums to %d, want %d", counts, total, want)
	}
	queries := []string{
		"SELECT A, B, C FROM T WHERE MOD(A, 3) = 0",
		"SELECT COUNT(*), SUM(B), MIN(A), MAX(B), COUNT(DISTINCT C) FROM T",
		"SELECT C, COUNT(*), SUM(B) FROM T GROUP BY C ORDER BY C",
		"SELECT * FROM T WHERE A < 50 ORDER BY B DESC LIMIT 10",
		"SELECT t.A, u.B FROM T t JOIN T u ON t.A = u.A WHERE u.A < 30",
	}
	ctx := context.Background()
	for _, q := range queries {
		d, err := e.ExecuteContext(ctx, q)
		if err != nil {
			t.Fatalf("dist %s: %v", q, err)
		}
		l, err := e.ExecuteContext(ctx, q, WithLocalOnly())
		if err != nil {
			t.Fatalf("local %s: %v", q, err)
		}
		sameRowsDist(t, q, d, l)
	}
	exec1(t, e, "DELETE FROM T WHERE MOD(A, 5) = 0")
	exec1(t, e, "UPDATE T SET B = B + 1 WHERE A < 100")
	d := exec1(t, e, "SELECT COUNT(*), SUM(B) FROM T")
	l, err := e.ExecuteContext(ctx, "SELECT COUNT(*), SUM(B) FROM T", WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDist(t, "after DML", d, l)
}

// Concurrent transactions write rows in row-id order and commit, or roll
// back, in another, while scans read the replicas; some update their own
// rows. Afterwards the shards still answer as the engine does, in its row
// order, at pool widths 1 and 4.
func TestDistConcurrentInsertsMatchLocal(t *testing.T) {
	for _, width := range []int{1, 4} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			e := newDistEngine(t, 2, 0)
			ctx := context.Background()
			par := WithParallelism(width)
			const clients, txs, rowsPerTx = 4, 60, 3
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < txs; i++ {
						tx := e.Begin()
						base := (c*txs + i) * rowsPerTx
						stmts := make([]string, 0, rowsPerTx+1)
						for k := 0; k < rowsPerTx; k++ {
							id := base + k
							stmts = append(stmts, fmt.Sprintf("INSERT INTO T VALUES (%d, %d, 'v%d')", id, id*7, id%13))
						}
						if i%3 == 0 {
							stmts = append(stmts, fmt.Sprintf("UPDATE T SET B = B + 1, C = 'u' WHERE A = %d", base))
						}
						for _, q := range stmts {
							if _, err := e.ExecuteContext(ctx, q, WithTx(tx), par); err != nil {
								t.Error(err)
								return
							}
						}
						// Every fifth transaction rolls back: its rows stay
						// behind, aborted, on the engine and the workers alike.
						var err error
						if i%5 == 4 {
							err = e.Rollback(tx)
						} else {
							err = e.CommitTxContext(ctx, tx)
						}
						if err != nil {
							t.Error(err)
							return
						}
						if _, err := e.ExecuteContext(ctx, "SELECT COUNT(*) FROM T WHERE B > 0", par); err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			if _, err := e.ExecuteContext(ctx, "DELETE FROM T WHERE MOD(A, 7) = 0", par); err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"SELECT A, B, C FROM T WHERE MOD(A, 3) = 0",
				"SELECT C, COUNT(*), SUM(B), MIN(A) FROM T GROUP BY C",
				"SELECT t.A, u.B FROM T t JOIN T u ON t.A = u.A WHERE u.A < 100",
			} {
				d, err := e.ExecuteContext(ctx, q, par)
				if err != nil {
					t.Fatalf("dist %s: %v", q, err)
				}
				l, err := e.ExecuteContext(ctx, q, WithLocalOnly(), par)
				if err != nil {
					t.Fatalf("local %s: %v", q, err)
				}
				if len(l.Rows) == 0 {
					t.Fatalf("%s: nothing to compare", q)
				}
				sameRowsDist(t, q, d, l)
			}
		})
	}
}

// WithShards caps the fan-out without changing the answer; a width the
// topology can't satisfy is clamped, and WithShards on a single-node
// engine is a no-op rather than an error.
func TestDistWithShardsFanout(t *testing.T) {
	e := newDistEngine(t, 4, 300)
	ctx := context.Background()
	const q = "SELECT A, B FROM T WHERE B > 700"
	want, err := e.ExecuteContext(ctx, q, WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	for _, fanout := range []int{1, 2, 4, 16} {
		got, err := e.ExecuteContext(ctx, q, WithShards(fanout))
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		sameRowsDist(t, fmt.Sprintf("fanout %d", fanout), got, want)
	}
	single := New(Config{})
	exec1(t, single, "CREATE TABLE S (A INT)")
	exec1(t, single, "INSERT INTO S VALUES (1), (2)")
	res, err := single.ExecuteContext(ctx, "SELECT A FROM S ORDER BY A", WithShards(2))
	if err != nil {
		t.Fatalf("WithShards on single-node engine: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// Reads inside an explicit transaction must stay on the engine node:
// workers scan at a snapshot alone, so a read that must see the
// transaction's own writes cannot be served remotely.
func TestDistExplicitTxnReadsStayLocal(t *testing.T) {
	e := newDistEngine(t, 3, 50)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), "INSERT INTO T VALUES (1000, 1, 'own')", WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	before := e.Metrics.DistQueries.Load()
	res, err := e.ExecuteContext(context.Background(), "SELECT COUNT(*) FROM T WHERE A = 1000", WithTx(tx))
	if err != nil {
		t.Fatal(err)
	}
	if value.Compare(res.Rows[0][0], value.NewInt(1)) != 0 {
		t.Fatalf("transaction cannot see its own write: %v", res.Rows)
	}
	if got := e.Metrics.DistQueries.Load(); got != before {
		t.Fatalf("explicit-txn read went distributed (dist.queries %d -> %d)", before, got)
	}
	if err := e.Rollback(tx); err != nil {
		t.Fatal(err)
	}
	// After rollback the mirrored write must be invisible fleet-wide.
	res = exec1(t, e, "SELECT COUNT(*) FROM T")
	if value.Compare(res.Rows[0][0], value.NewInt(50)) != 0 {
		t.Fatalf("rolled-back insert leaked: %v", res.Rows)
	}
}

// ALTER TABLE changes the worker-side schema, so it must reseed the fleet;
// distributed reads after the ALTER must see the widened rows.
func TestDistAlterTableReseeds(t *testing.T) {
	e := newDistEngine(t, 3, 120)
	exec1(t, e, "ALTER TABLE T ADD (D INT)")
	exec1(t, e, "UPDATE T SET D = A * 2 WHERE A < 60")
	ctx := context.Background()
	const q = "SELECT A, D FROM T WHERE D > 0 ORDER BY A"
	d, err := e.ExecuteContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	l, err := e.ExecuteContext(ctx, q, WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDist(t, "post-ALTER", d, l)
}

// A transaction in flight across an ALTER's reseed commits on the workers
// as on the engine: the reseed ships its rows with their stamps, and the
// commit leaves no branch in doubt. Distributed reads then equal local ones
// for an INSERT, an UPDATE and a DELETE.
func TestDistWriterInFlightAcrossReseed(t *testing.T) {
	ctx := context.Background()
	for _, stmt := range []string{
		"INSERT INTO T VALUES (1000, 7000, 'new')",
		"UPDATE T SET B = B + 1 WHERE A = 17",
		"DELETE FROM T WHERE A = 23",
	} {
		t.Run(strings.Fields(stmt)[0], func(t *testing.T) {
			e := newDistEngine(t, 3, 60)
			tx := e.Begin()
			if _, err := e.ExecuteContext(ctx, stmt, WithTx(tx)); err != nil {
				t.Fatal(err)
			}
			exec1(t, e, "ALTER TABLE T ADD (D INT)")
			if err := e.CommitTxContext(ctx, tx); err != nil {
				t.Fatalf("commit: %v", err)
			}
			if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
				t.Fatalf("branches in doubt: %v", ind)
			}
			const q = "SELECT A, B, C, D FROM T ORDER BY A"
			before := e.Metrics.DistQueries.Load()
			d, err := e.ExecuteContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if e.Metrics.DistQueries.Load() == before {
				t.Fatal("the read did not run distributed")
			}
			l, err := e.ExecuteContext(ctx, q, WithLocalOnly())
			if err != nil {
				t.Fatal(err)
			}
			sameRowsDist(t, stmt, d, l)
		})
	}
}

// Crash recovery replays the WAL into the engine node and then reseeds the
// fleet from the recovered state, so a reopened sharded engine serves
// distributed reads immediately.
func TestDistRecoveryReseeds(t *testing.T) {
	dir := t.TempDir()
	topo := dist.Topology{Shards: 3}
	e, err := Open(Config{DataDir: dir, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	exec1(t, e, "CREATE TABLE R (A INT PRIMARY KEY, B INT)")
	for i := 0; i < 90; i++ {
		exec1(t, e, fmt.Sprintf("INSERT INTO R VALUES (%d, %d)", i, i*3))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{DataDir: dir, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	before := r.Metrics.DistQueries.Load()
	got, err := r.ExecuteContext(ctx, "SELECT COUNT(*), SUM(B) FROM R")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.DistQueries.Load() <= before {
		t.Fatal("post-recovery aggregate did not run distributed")
	}
	want, err := r.ExecuteContext(ctx, "SELECT COUNT(*), SUM(B) FROM R", WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDist(t, "post-recovery", got, want)
}

// One transaction writes an extended table and a 2-shard table, and phase 2
// fails at the cold participant and at both workers. The branch is one TID
// in doubt, whichever participants failed: resolution delivers the commit
// to all of them, so the cold rows and both shards' rows become visible.
func TestInDoubtBranchOfManyParticipantsResolves(t *testing.T) {
	inj := faults.New(1)
	inj.SetSleep(func(time.Duration) {})
	e := New(Config{
		ExtendedStorageDir: t.TempDir(),
		Topology:           dist.Topology{Shards: 2},
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
	})
	exec1(t, e, "CREATE TABLE c (id BIGINT) USING EXTENDED STORAGE")
	exec1(t, e, "CREATE TABLE h (id INT PRIMARY KEY, v INT)")
	for _, site := range []string{"extstore:c", "dist:worker:0", "dist:worker:1"} {
		inj.FailN("txn.commit."+site, 1)
	}
	tx := e.Begin()
	for _, sql := range []string{"INSERT INTO c VALUES (1), (2)", "INSERT INTO h VALUES (1, 10), (2, 20), (3, 30), (4, 40)"} {
		if _, err := e.ExecuteContext(context.Background(), sql, WithTx(tx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 1 {
		t.Fatalf("in-doubt = %v, want one branch", ind)
	}
	if err := e.ResolveAllInDoubt(); err != nil {
		t.Errorf("resolve: %v", err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
		t.Errorf("in-doubt after resolve = %v", ind)
	}
	if n := exec1(t, e, "SELECT COUNT(*) FROM c").Rows[0][0].Int(); n != 2 {
		t.Errorf("cold count = %d, want 2", n)
	}
	const q = "SELECT COUNT(*), SUM(v) FROM h"
	l, err := e.ExecuteContext(context.Background(), q, WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDist(t, q, exec1(t, e, q), l)
	if n := l.Rows[0][0].Int(); n != 4 {
		t.Errorf("count = %d, want 4", n)
	}
}
