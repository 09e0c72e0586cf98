package chaos

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hana/internal/engine"
	"hana/internal/esp"
	"hana/internal/faults"
	"hana/internal/hdfs"
	"hana/internal/hive"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// chaosStack is the full federated topology under test: one engine with an
// extended-storage table, a remote Hive source backed by map-reduce over
// HDFS, and an archive sink on the same cluster. A single seeded injector
// is threaded through every layer.
type chaosStack struct {
	e       *engine.Engine
	inj     *faults.Injector
	cluster *hdfs.Cluster
	srv     *hive.Server
	sink    *esp.HDFSArchiveSink
	now     *time.Time
}

func noSleep(time.Duration) {}

func newChaosStack(t *testing.T, seed int64) *chaosStack {
	t.Helper()
	inj := faults.New(seed)
	inj.SetSleep(noSleep)

	cluster := hdfs.NewCluster(3, hdfs.WithBlockSize(64<<10), hdfs.WithReplication(2))
	cluster.SetInjector(inj)
	ms := hive.NewMetastore(cluster, "/warehouse")
	mr := mapreduce.NewEngine(cluster, mapreduce.Config{
		MapSlots: 8, ReduceSlots: 4, DefaultReducers: 2,
		Faults: inj,
		Retry:  faults.RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
	})
	host := fmt.Sprintf("hive-%s", t.Name())
	srv := hive.NewServer(host, ms, mr)
	hive.RegisterServer(srv)
	t.Cleanup(func() { hive.UnregisterServer(host) })

	custSchema := value.NewSchema(
		value.Column{Name: "c_custkey", Kind: value.KindInt},
		value.Column{Name: "c_name", Kind: value.KindVarchar},
		value.Column{Name: "c_nationkey", Kind: value.KindInt},
		value.Column{Name: "c_mktsegment", Kind: value.KindVarchar},
	)
	ordSchema := value.NewSchema(
		value.Column{Name: "o_orderkey", Kind: value.KindInt},
		value.Column{Name: "o_custkey", Kind: value.KindInt},
		value.Column{Name: "o_total", Kind: value.KindDouble},
	)
	if _, err := ms.CreateTable("customer", custSchema, false); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateTable("orders", ordSchema, false); err != nil {
		t.Fatal(err)
	}
	segs := []string{"HOUSEHOLD", "AUTOMOBILE"}
	var custs, ords []value.Row
	for i := 1; i <= 20; i++ {
		custs = append(custs, value.Row{
			value.NewInt(int64(i)), value.NewString(fmt.Sprintf("C%02d", i)),
			value.NewInt(int64(i % 3)), value.NewString(segs[i%2]),
		})
	}
	for i := 1; i <= 60; i++ {
		ords = append(ords, value.Row{
			value.NewInt(int64(i)), value.NewInt(int64(i%20 + 1)), value.NewDouble(float64(i)),
		})
	}
	if err := ms.LoadRows("customer", custs, 2); err != nil {
		t.Fatal(err)
	}
	if err := ms.LoadRows("orders", ords, 2); err != nil {
		t.Fatal(err)
	}

	e := engine.New(engine.Config{
		ExtendedStorageDir: t.TempDir(),
		EnableRemoteCache:  true,
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 3, Sleep: noSleep},
		BreakerThreshold:   2,
		BreakerCooldown:    time.Second,
	})
	now := time.Unix(1_700_000_000, 0)
	e.SetClock(func() time.Time { return now })
	e.Registry().Register("hiveodbc", hive.NewAdapterFactory())
	mustExec(t, e, fmt.Sprintf(`CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc"
		CONFIGURATION 'DSN=%s' WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=dfuser;password=dfpass'`, host))
	mustExec(t, e, `CREATE VIRTUAL TABLE V_CUSTOMER AT "HIVE1"."dflo"."dflo"."customer"`)
	mustExec(t, e, `CREATE VIRTUAL TABLE V_ORDERS AT "HIVE1"."dflo"."dflo"."orders"`)
	mustExec(t, e, `CREATE TABLE chaos_txn (id BIGINT) USING EXTENDED STORAGE`)

	sink := esp.NewHDFSArchiveSink(cluster, "/chaos-arch", 3)
	sink.SetInjector(inj)
	sink.SetRetryPolicy(faults.RetryPolicy{MaxAttempts: 3, Sleep: noSleep})

	return &chaosStack{e: e, inj: inj, cluster: cluster, srv: srv, sink: sink, now: &now}
}

func mustExec(t *testing.T, e *engine.Engine, sql string) *engine.Result {
	t.Helper()
	res, err := e.ExecuteContext(context.Background(), sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// The federated slice of the workload: a whole-shipped TPC-H-style join
// aggregate and a simple predicated scan. Both are run once healthy so the
// fallback cache holds a last good result for each.
var chaosQueries = []string{
	`SELECT c_mktsegment, COUNT(*) n, SUM(o_total) s
		FROM V_CUSTOMER JOIN V_ORDERS ON c_custkey = o_custkey
		GROUP BY c_mktsegment ORDER BY n DESC`,
	`SELECT c_name FROM V_CUSTOMER WHERE c_mktsegment = 'HOUSEHOLD'`,
}

func breakerStats(t *testing.T, s *chaosStack, source string) faults.BreakerStats {
	t.Helper()
	for _, b := range s.e.Health().Snapshot() {
		if b.Name == source {
			return b
		}
	}
	t.Fatalf("no breaker for %s", source)
	return faults.BreakerStats{}
}

// TestChaosFederatedWorkloadSurvivesFaultSchedule replays a seeded fault
// schedule that fails every remote boundary at least twice while a
// federated query workload, concurrent 2PC commits, and a streaming
// archive sink all run, then checks the resilience invariants.
func TestChaosFederatedWorkloadSurvivesFaultSchedule(t *testing.T) {
	s := newChaosStack(t, 42)

	// Healthy pass: seeds the fallback cache with one good result per
	// federated statement.
	for _, q := range chaosQueries {
		mustExec(t, s.e, q)
	}

	// The storm schedule. Every remote boundary fails at least twice:
	//   - six fed.query failures = two fully exhausted retry rounds, which
	//     trips the threshold-2 breaker;
	//   - two 2PC prepare failures (those transactions must abort cleanly)
	//     and two commit-phase failures (those branches go in-doubt);
	//   - two failures each for HDFS reads/writes, map and reduce tasks,
	//     and sink flushes, all absorbed by the per-layer retries.
	s.inj.FailN("fed.query.hive1", 6)
	s.inj.FailN("txn.prepare.extstore:chaos_txn", 2)
	s.inj.FailN("txn.commit.extstore:chaos_txn", 2)
	s.inj.FailN("hdfs.write", 2)
	s.inj.FailN("hdfs.read", 2)
	s.inj.FailN("mapreduce.map", 2)
	s.inj.FailN("mapreduce.reduce", 2)
	s.inj.FailN("esp.flush", 2)

	const (
		queryWorkers = 4
		queriesEach  = 5
		txnWorkers   = 2
		txnsEach     = 5
	)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		queryErrs []error
		committed = map[int64]bool{}
		aborted   = map[int64]bool{}
	)

	// The outage hits in call order, not spread over the concurrent
	// workers (where six failures need not exhaust any one statement's
	// retries): each federated statement alone burns one three-attempt
	// round and falls back to the cache, so the second opens the breaker
	// before the concurrent phase starts.
	for _, q := range chaosQueries {
		if _, err := s.e.ExecuteContext(context.Background(), q); err != nil {
			queryErrs = append(queryErrs, err)
		}
	}
	if got := s.inj.Injected("fed.query.hive1"); got != 6 {
		t.Fatalf("fed.query faults injected = %d, want all 6 consumed by the outage statements", got)
	}
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				q := chaosQueries[(w+i)%len(chaosQueries)]
				if _, err := s.e.ExecuteContext(context.Background(), q); err != nil {
					mu.Lock()
					queryErrs = append(queryErrs, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	for w := 0; w < txnWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				id := int64(w*txnsEach + i + 1)
				tx := s.e.Begin()
				if _, err := s.e.ExecuteContext(context.Background(), fmt.Sprintf("INSERT INTO chaos_txn VALUES (%d)", id), engine.WithTx(tx)); err != nil {
					t.Errorf("insert %d: %v", id, err)
					return
				}
				err := s.e.CommitTxContext(context.Background(), tx)
				if err != nil && !faults.IsClassified(err) {
					t.Errorf("commit %d failed with unclassified error: %v", id, err)
				}
				mu.Lock()
				if err == nil {
					committed[id] = true
				} else {
					aborted[id] = true
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			rows := []value.Row{
				{value.NewInt(int64(2 * i)), value.NewString("EV")},
				{value.NewInt(int64(2*i + 1)), value.NewString("EV")},
			}
			if err := s.sink.Consume(rows, nil); err != nil {
				t.Errorf("sink consume: %v", err)
			}
		}
	}()
	wg.Wait()

	// Invariant: queries either succeed (live or from fallback) or fail
	// with a classified error — never an unclassified one.
	for _, err := range queryErrs {
		if !faults.IsClassified(err) {
			t.Fatalf("unclassified query error escaped: %v", err)
		}
	}

	// The breaker tripped and the workload kept answering from the
	// fallback cache while it was open.
	hb := breakerStats(t, s, "HIVE1")
	if hb.Opens == 0 {
		t.Fatalf("HIVE1 breaker never opened: %+v", hb)
	}
	if hb.State != faults.BreakerOpen {
		t.Fatalf("HIVE1 breaker state = %s immediately after the storm", hb.State)
	}
	m := s.e.Metrics.Snapshot()
	if m.RemoteFallbackHits == 0 {
		t.Fatal("no query was served from the fallback cache during the outage")
	}
	if m.RemoteRetries == 0 {
		t.Fatal("remote retries were never exercised")
	}
	res := mustExec(t, s.e, `SELECT source_name, breaker_state FROM M_REMOTE_SOURCE_HEALTH()`)
	if len(res.Rows) != 1 || res.Rows[0][1].String() != "OPEN" {
		t.Fatalf("M_REMOTE_SOURCE_HEALTH = %v", res.Rows)
	}

	// Exactly the two commit-phase victims are in-doubt, with a logged
	// commit decision visible through M_INDOUBT_TRANSACTIONS.
	if got := len(s.e.TxnManager().InDoubt()); got != 2 {
		t.Fatalf("in-doubt branches = %d, want 2", got)
	}
	res = mustExec(t, s.e, `SELECT transaction_id, decision FROM M_INDOUBT_TRANSACTIONS()`)
	for _, r := range res.Rows {
		if r[1].String() != "COMMIT" {
			t.Fatalf("in-doubt decision = %v", r)
		}
	}

	// Recovery: the cooldown elapses, the next query is admitted as the
	// half-open probe, and the two map/reduce task failures still queued in
	// the schedule are absorbed by the map-reduce retry layer on the way.
	*s.now = s.now.Add(2 * time.Second)
	probe := mustExec(t, s.e, chaosQueries[0])
	if strings.Contains(probe.Plan, "fallback cache)") {
		t.Fatalf("post-cooldown query must run live:\n%s", probe.Plan)
	}
	if hb := breakerStats(t, s, "HIVE1"); hb.State != faults.BreakerClosed {
		t.Fatalf("successful probe must close the breaker, state = %s", hb.State)
	}
	if got := s.inj.Injected("mapreduce"); got != 4 {
		t.Fatalf("map-reduce faults injected = %d, want all 4 consumed", got)
	}

	// The in-doubt resolver drains both branches even though the commit
	// site fails twice more during resolution: the resolver's own retry
	// absorbs those.
	s.inj.FailN("txn.commit.extstore:chaos_txn", 2)
	if err := s.e.ResolveAllInDoubt(); err != nil {
		t.Fatalf("resolver must drain in-doubt branches: %v", err)
	}
	if got := len(s.e.TxnManager().InDoubt()); got != 0 {
		t.Fatalf("branches still in-doubt after resolver: %d", got)
	}

	// No lost, duplicated, or phantom commits: the table holds exactly the
	// successfully committed ids, including the two resolved branches, and
	// the two prepare victims aborted (2 + 2 + 16 clean = 10 transactions).
	if len(committed)+len(aborted) != txnWorkers*txnsEach {
		t.Fatalf("accounting: %d committed + %d aborted", len(committed), len(aborted))
	}
	if len(aborted) != 2 {
		t.Fatalf("aborted = %d, want the 2 prepare victims", len(aborted))
	}
	s.inj.Reset() // the schedule is spent; verification reads run clean
	res = mustExec(t, s.e, `SELECT id FROM chaos_txn ORDER BY id`)
	if len(res.Rows) != len(committed) {
		t.Fatalf("rows = %d, committed = %d", len(res.Rows), len(committed))
	}
	seen := map[int64]bool{}
	for _, r := range res.Rows {
		id := r[0].Int()
		if seen[id] {
			t.Fatalf("id %d applied twice", id)
		}
		seen[id] = true
		if !committed[id] {
			t.Fatalf("id %d visible but never acknowledged committed", id)
		}
	}

	// The sink delivered every consumed row exactly once (spills included)
	// after a final flush.
	if err := s.sink.Close(); err != nil {
		t.Fatal(err)
	}
	var archived int
	for _, fi := range s.cluster.List("/chaos-arch") {
		data, err := s.cluster.ReadFile(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		archived += strings.Count(string(data), "\n")
	}
	if archived != 20 {
		t.Fatalf("archived rows = %d, want exactly 20", archived)
	}
	if s.e.Metrics.Snapshot().InDoubtResolved != 2 {
		t.Fatalf("InDoubtResolved = %d", s.e.Metrics.Snapshot().InDoubtResolved)
	}
}

// TestChaosScheduleIsDeterministic replays the probabilistic injector from
// the same seed twice and expects identical fault decisions, which is what
// makes a failing chaos run reproducible.
func TestChaosScheduleIsDeterministic(t *testing.T) {
	decisions := func(seed int64) []bool {
		inj := faults.New(seed)
		inj.SetSleep(noSleep)
		inj.FailProb("fed.query", 0.3)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, inj.Check("fed.query.hive1") != nil)
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := decisions(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical schedule (suspicious)")
	}
}
