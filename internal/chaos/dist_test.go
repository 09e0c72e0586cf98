package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/faults"
	"hana/internal/tpch"
	"hana/internal/value"
)

// distStack is a sharded engine under chaos: four workers, two replicas per
// shard, a seeded injector threaded through the guarded caller and every
// worker fault site, and a TPC-H slice loaded so reference results exist.
type distStack struct {
	e   *engine.Engine
	inj *faults.Injector
}

func newDistStack(t *testing.T, seed int64) *distStack {
	t.Helper()
	inj := faults.New(seed)
	inj.SetSleep(noSleep)
	e := engine.New(engine.Config{
		ExtendedStorageDir: t.TempDir(),
		Parallelism:        4,
		Topology:           dist.Topology{Shards: 4},
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
		BreakerThreshold:   2,
		BreakerCooldown:    time.Millisecond,
	})
	data := tpch.Generate(0.005, 2015)
	schemas := tpch.Schemas()
	for name, rows := range data.Tables {
		ddl := fmt.Sprintf("CREATE TABLE %s (", name)
		for i, c := range schemas[name].Cols {
			if i > 0 {
				ddl += ", "
			}
			ddl += c.Name + " " + c.Kind.String()
		}
		ddl += ")"
		mustExec(t, e, ddl)
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	return &distStack{e: e, inj: inj}
}

// reference runs every TPC-H query pinned local and keeps the rows; the
// local path never touches workers, so it stays correct under any chaos.
func (s *distStack) reference(t *testing.T) map[int]*engine.Result {
	t.Helper()
	out := map[int]*engine.Result{}
	for _, id := range tpch.QueryIDs() {
		res, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[id].SQL, engine.WithLocalOnly())
		if err != nil {
			t.Fatalf("reference Q%d: %v", id, err)
		}
		out[id] = res
	}
	return out
}

func sameRows(a, b *engine.Result) bool {
	if !reflect.DeepEqual(a.Schema, b.Schema) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !reflect.DeepEqual(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// A worker's transient stumble (fault site dist.worker.<id>.exec) must be
// absorbed by the guarded caller's retry without the client seeing anything:
// same rows, retry counter moved.
func TestDistTransientFaultRetries(t *testing.T) {
	s := newDistStack(t, 401)
	want := s.reference(t)
	before := s.e.Metrics.DistRetries.Load()
	s.inj.FailN("dist.worker.0.exec", 2)
	res, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[1].SQL)
	if err != nil {
		t.Fatalf("query with transient worker fault: %v", err)
	}
	if !sameRows(res, want[1]) {
		t.Fatal("result diverged after transient-fault retries")
	}
	if got := s.e.Metrics.DistRetries.Load(); got <= before {
		t.Fatalf("expected dist.retries to advance, still %d", got)
	}
}

// Killing one worker must be invisible to clients: every shard it owned has
// a live replica, so each query fails over and still returns the exact
// single-node rows.
func TestDistWorkerDeathFailsOver(t *testing.T) {
	s := newDistStack(t, 402)
	want := s.reference(t)
	s.e.DistTransport().Worker(1).Kill()
	defer s.e.DistTransport().Worker(1).Revive()
	before := s.e.Metrics.DistFailovers.Load()
	for _, id := range tpch.QueryIDs() {
		res, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[id].SQL)
		if err != nil {
			t.Fatalf("Q%d with worker 1 dead: %v", id, err)
		}
		if !sameRows(res, want[id]) {
			t.Fatalf("Q%d diverged with worker 1 dead", id)
		}
	}
	if got := s.e.Metrics.DistFailovers.Load(); got <= before {
		t.Fatalf("expected dist.failovers to advance, still %d", got)
	}
}

// When every replica of a shard is dead the query must fail fast with a
// classified error — never a wrong answer, never a hang — and recover on
// its own once a replica comes back.
func TestDistShardUnavailableFailsCleanly(t *testing.T) {
	s := newDistStack(t, 403)
	want := s.reference(t)
	tr := s.e.DistTransport()
	// Shard 0's owners are workers 0 and 1 (replica chain (s+i)%shards).
	tr.Worker(0).Kill()
	tr.Worker(1).Kill()
	_, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[6].SQL)
	if err == nil {
		t.Fatal("expected error with both replicas of shard 0 dead")
	}
	if !faults.IsClassified(err) {
		t.Fatalf("unclassified error: %v", err)
	}
	if !strings.Contains(err.Error(), "replicas") && !strings.Contains(err.Error(), "down") {
		t.Fatalf("error does not name the replica outage: %v", err)
	}
	tr.Worker(0).Revive()
	tr.Worker(1).Revive()
	// Breakers for the dead workers may be open; past the cooldown the
	// half-open probe succeeds and the fleet heals without intervention.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[6].SQL)
		if err == nil {
			if !sameRows(res, want[6]) {
				t.Fatal("post-recovery result diverged")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not heal after revive: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The hard case: a worker dies *mid-fragment* while queries are in flight.
// Per-attempt chunk buffers mean a cut stream never leaks partial rows into
// the merge, so every query must either complete with the exact reference
// rows (failover) or fail with a classified error — and the run must not
// hang. A chaos goroutine kills and revives random workers under the load.
func TestDistWorkerDeathMidQuery(t *testing.T) {
	s := newDistStack(t, 404)
	want := s.reference(t)
	tr := s.e.DistTransport()
	rng := rand.New(rand.NewSource(404))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := tr.Worker(rng.Intn(4))
			w.Kill()
			time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			w.Revive()
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}()

	ids := tpch.QueryIDs()
	completed, failed := 0, 0
	for round := 0; round < 6; round++ {
		for _, id := range ids {
			res, err := s.e.ExecuteContext(context.Background(), tpch.Queries()[id].SQL)
			if err != nil {
				if !faults.IsClassified(err) {
					t.Fatalf("round %d Q%d: unclassified error: %v", round, id, err)
				}
				failed++
				continue
			}
			completed++
			if !sameRows(res, want[id]) {
				t.Fatalf("round %d Q%d: completed query returned wrong rows under chaos", round, id)
			}
		}
	}
	close(stop)
	wg.Wait()
	if completed == 0 {
		t.Fatalf("no query completed under chaos (%d failed cleanly)", failed)
	}
	t.Logf("chaos run: %d completed byte-identical, %d failed cleanly", completed, failed)
}

// Cross-shard writes ride the engine's 2PC: a transaction buffered on the
// workers must apply atomically on commit and vanish on rollback, and the
// mirrored shards must keep answering with the exact committed state.
func TestDistTwoPhaseCommitUnderChaos(t *testing.T) {
	s := newDistStack(t, 405)
	mustExec(t, s.e, "CREATE TABLE dist_txn (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 40; i++ {
		mustExec(t, s.e, fmt.Sprintf("INSERT INTO dist_txn VALUES (%d, %d)", i, i*10))
	}

	// Rolled-back work must leave no trace on any shard replica.
	tx := s.e.Begin()
	if _, err := s.e.ExecuteContext(context.Background(), "INSERT INTO dist_txn VALUES (100, 1000)", engine.WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := s.e.Rollback(tx); err != nil {
		t.Fatal(err)
	}

	// A transient prepare fault on a worker participant must not break the
	// commit (retry absorbs it) — and the committed rows must be visible
	// through the distributed read path afterwards.
	s.inj.FailN("dist.worker.2.prepare", 1)
	tx2 := s.e.Begin()
	if _, err := s.e.ExecuteContext(context.Background(), "INSERT INTO dist_txn VALUES (101, 1010)", engine.WithTx(tx2)); err != nil {
		t.Fatal(err)
	}
	if err := s.e.CommitTxContext(context.Background(), tx2); err != nil {
		t.Fatalf("commit with transient prepare fault: %v", err)
	}

	before := s.e.Metrics.DistQueries.Load()
	res := mustExec(t, s.e, "SELECT COUNT(*), SUM(v) FROM dist_txn")
	if got := s.e.Metrics.DistQueries.Load(); got <= before {
		t.Fatalf("expected the aggregate to run distributed, dist.queries still %d", got)
	}
	if got := res.Rows[0][0]; value.Compare(got, value.NewInt(41)) != 0 {
		t.Fatalf("count after chaos txns: got %v want 41", got)
	}
	if got := res.Rows[0][1]; value.Compare(got, value.NewInt(40*39/2*10+1010)) != 0 {
		t.Fatalf("sum after chaos txns: got %v", got)
	}
	local, err := s.e.ExecuteContext(context.Background(), "SELECT COUNT(*), SUM(v) FROM dist_txn", engine.WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, local.Rows) {
		t.Fatal("distributed and local counts diverged after chaos txns")
	}
}

// A worker whose phase-2 delivery fails leaves its branch in doubt with a
// commit decision. Resolution delivers the decision to every participant,
// workers included, so the branch drains and the shards answer exactly as
// the engine does — also when the engine restarts before resolving and
// rebuilds its workers from the recovered tables.
func TestDistInDoubtWorkerBranchResolves(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			inj := faults.New(406)
			inj.SetSleep(noSleep)
			cfg := engine.Config{
				DataDir:  t.TempDir(),
				Topology: dist.Topology{Shards: 2},
				Faults:   inj,
				Retry:    faults.RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
			}
			e, err := engine.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = e.Close() }()
			mustExec(t, e, "CREATE TABLE dist_doubt (id INT PRIMARY KEY, v INT)")
			inj.FailN("txn.commit.dist:worker:0", 1)
			mustExec(t, e, "INSERT INTO dist_doubt VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
			if ind := e.TxnManager().InDoubt(); len(ind) != 1 {
				t.Fatalf("in-doubt = %v, want the worker's branch", ind)
			}
			if restart {
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = engine.Open(cfg); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.ResolveAllInDoubt(); err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
				t.Fatalf("in-doubt after resolve = %v", ind)
			}
			const q = "SELECT COUNT(*), SUM(v) FROM dist_doubt"
			before := e.Metrics.DistQueries.Load()
			res := mustExec(t, e, q)
			if e.Metrics.DistQueries.Load() <= before {
				t.Fatal("the count did not run distributed")
			}
			local, err := e.ExecuteContext(context.Background(), q, engine.WithLocalOnly())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Rows, local.Rows) {
				t.Fatalf("distributed %v, local %v", res.Rows, local.Rows)
			}
			if got := local.Rows[0][0]; value.Compare(got, value.NewInt(4)) != 0 {
				t.Fatalf("count = %v, want 4", got)
			}
		})
	}
}
