package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// fakeAdapter returns canned (k, v) rows for every shipped query, so tests
// can exercise the retry/breaker/fallback layer without a Hive server. With
// project set, a statement whose select list only names columns gets those
// columns of the canned rows.
type fakeAdapter struct {
	mu      sync.Mutex
	schema  *value.Schema
	data    []value.Row
	queries int
	project bool
}

func (a *fakeAdapter) Name() string { return "fakeadapter" }

func (a *fakeAdapter) Capabilities() fed.Capabilities {
	return fed.Capabilities{Select: true, Joins: true, GroupBy: true, OrderBy: true, Limit: true, Subqueries: true}
}

func (a *fakeAdapter) TableSchema(path []string) (*value.Schema, error) { return a.schema, nil }

func (a *fakeAdapter) TableStats(path []string) (fed.TableStats, bool) {
	return fed.TableStats{RowCount: int64(len(a.data))}, true
}

func (a *fakeAdapter) Query(sql string, opts fed.QueryOptions) (*fed.QueryResult, error) {
	a.mu.Lock()
	a.queries++
	a.mu.Unlock()
	// Fresh copies: the engine casts result values in place.
	rows := value.NewRows(a.schema)
	for _, r := range a.data {
		c := make(value.Row, len(r))
		copy(c, r)
		rows.Append(c)
	}
	if a.project {
		st, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		var pick []int
		for _, it := range st.(*sqlparse.SelectStmt).Items {
			c, ok := it.Expr.(*expr.ColRef)
			if !ok {
				return &fed.QueryResult{Rows: rows}, nil
			}
			pick = append(pick, a.schema.MustFind(c.Name))
		}
		rows = cloneRows(rows, pick)
	}
	return &fed.QueryResult{Rows: rows}, nil
}

func (a *fakeAdapter) queryCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queries
}

// newResilientSetup builds an engine over a fake remote source with fault
// injection, no-op sleeps, a 2-failure breaker and a controllable clock.
func newResilientSetup(t *testing.T) (*Engine, *faults.Injector, *fakeAdapter, *time.Time) {
	t.Helper()
	inj := faults.New(7)
	inj.SetSleep(func(time.Duration) {})
	e := New(Config{
		ExtendedStorageDir: t.TempDir(),
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		BreakerThreshold:   2,
		BreakerCooldown:    time.Second,
		SemiJoinThreshold:  1, // keep leaf SQL free of shipped IN-lists
	})
	now := time.Unix(1000, 0)
	e.SetClock(func() time.Time { return now })
	fake := &fakeAdapter{
		schema: value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "v", Kind: value.KindVarchar},
		),
		data: []value.Row{
			{value.NewInt(1), value.NewString("a")},
			{value.NewInt(2), value.NewString("b")},
			{value.NewInt(3), value.NewString("c")},
		},
	}
	e.Registry().Register("fakeadapter", func(config, credentials map[string]string) (fed.Adapter, error) {
		return fake, nil
	})
	exec1(t, e, `CREATE REMOTE SOURCE FAKE1 ADAPTER "fakeadapter" CONFIGURATION 'DSN=fake'`)
	exec1(t, e, `CREATE VIRTUAL TABLE V_T AT "FAKE1"."r"."r"."t"`)
	exec1(t, e, `CREATE TABLE loc (id BIGINT, name VARCHAR(10))`)
	exec1(t, e, `INSERT INTO loc VALUES (1,'uno'), (2,'dos'), (3,'tres')`)
	return e, inj, fake, &now
}

func TestRemoteQueryRetriesTransient(t *testing.T) {
	e, inj, fake, _ := newResilientSetup(t)
	inj.FailN("fed.query.fake1", 2)
	res := exec1(t, e, `SELECT k, v FROM V_T`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	m := e.Metrics.Snapshot()
	if m.RemoteRetries != 2 {
		t.Fatalf("RemoteRetries = %d, want 2", m.RemoteRetries)
	}
	if fake.queryCount() != 1 {
		t.Fatalf("adapter calls = %d, want 1 (injector failed before the adapter)", fake.queryCount())
	}
	if st := e.Health().Breaker("FAKE1").State(); st != faults.BreakerClosed {
		t.Fatalf("breaker = %v, want CLOSED after eventual success", st)
	}
}

func TestBreakerOpensServesFallbackAndRecovers(t *testing.T) {
	e, inj, fake, now := newResilientSetup(t)
	// Healthy run populates the fallback cache for this statement.
	exec1(t, e, `SELECT k, v FROM V_T`)
	calls := fake.queryCount()

	// Exhaust retries twice: threshold 2 consecutive failures opens the
	// breaker, but both statements still answer from the fallback cache.
	inj.FailN("fed.query.fake1", 100)
	for i := 0; i < 2; i++ {
		res := exec1(t, e, `SELECT k, v FROM V_T`)
		if len(res.Rows) != 3 {
			t.Fatalf("run %d rows = %v", i, res.Rows)
		}
		if !strings.Contains(res.Plan, "fallback cache)") {
			t.Fatalf("run %d plan must mark the fallback:\n%s", i, res.Plan)
		}
	}
	if st := e.Health().Breaker("FAKE1").State(); st != faults.BreakerOpen {
		t.Fatalf("breaker = %v, want OPEN", st)
	}
	// Open breaker: served without touching the injector or adapter.
	checked := inj.Calls("fed.query")
	res := exec1(t, e, `SELECT k, v FROM V_T`)
	if len(res.Rows) != 3 || inj.Calls("fed.query") != checked {
		t.Fatalf("open breaker must serve fallback without remote calls")
	}
	// The health view reports the open circuit.
	hv := exec1(t, e, `SELECT source_name, breaker_state FROM M_REMOTE_SOURCE_HEALTH()`)
	if len(hv.Rows) != 1 || hv.Rows[0][0].String() != "FAKE1" || hv.Rows[0][1].String() != "OPEN" {
		t.Fatalf("M_REMOTE_SOURCE_HEALTH = %v", hv.Rows)
	}

	// Fault repaired + cooldown elapsed: the half-open probe closes the
	// circuit and results come from the adapter again.
	inj.Reset()
	*now = now.Add(2 * time.Second)
	res = exec1(t, e, `SELECT k, v FROM V_T`)
	if strings.Contains(res.Plan, "fallback cache)") {
		t.Fatalf("recovered source must serve live rows:\n%s", res.Plan)
	}
	if st := e.Health().Breaker("FAKE1").State(); st != faults.BreakerClosed {
		t.Fatalf("breaker = %v, want CLOSED after probe", st)
	}
	if fake.queryCount() <= calls {
		t.Fatal("probe must have reached the adapter")
	}
	if m := e.Metrics.Snapshot(); m.RemoteFallbackHits != 3 {
		t.Fatalf("RemoteFallbackHits = %d, want 3", m.RemoteFallbackHits)
	}
}

func TestFallbackRespectsValidity(t *testing.T) {
	e, inj, _, now := newResilientSetup(t)
	e.SetRemoteCacheValidity(time.Minute)
	exec1(t, e, `SELECT k, v FROM V_T`)
	inj.FailN("fed.query.fake1", 100)
	// Entry aged out: the classified failure surfaces instead of stale rows.
	*now = now.Add(2 * time.Minute)
	_, err := e.ExecuteContext(context.Background(), `SELECT k, v FROM V_T`)
	if err == nil {
		t.Fatal("expired fallback must not be served")
	}
	if !faults.IsClassified(err) {
		t.Fatalf("error must stay classified: %v", err)
	}
}

func TestShipWholeDeclinesOnOpenBreaker(t *testing.T) {
	e, inj, _, _ := newResilientSetup(t)
	// Seed the per-leaf fallback with a mixed local/remote join (ship-whole
	// does not apply, so the leaf statement is what gets cached).
	mixed := `SELECT v, name FROM V_T, loc WHERE k = id`
	if res := exec1(t, e, mixed); len(res.Rows) != 3 {
		t.Fatalf("mixed rows = %v", res.Rows)
	}
	// Open the breaker with two exhausted statements that miss the cache.
	inj.FailN("fed.query.fake1", 100)
	for i := 0; i < 2; i++ {
		if _, err := e.ExecuteContext(context.Background(), `SELECT k FROM V_T WHERE k > 0`); err == nil {
			t.Fatal("uncached statement must fail while the source is down")
		}
	}
	if st := e.Health().Breaker("FAKE1").State(); st != faults.BreakerOpen {
		t.Fatalf("breaker = %v, want OPEN", st)
	}
	// A never-before-seen pure-remote statement: ship-whole declines on the
	// open breaker and per-leaf planning answers from the leaf fallback.
	before := e.Metrics.Snapshot().PlannerFallbacks
	res := exec1(t, e, `SELECT k, v FROM V_T`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Plan, "fallback cache)") {
		t.Fatalf("leaf fallback must be marked:\n%s", res.Plan)
	}
	if after := e.Metrics.Snapshot().PlannerFallbacks; after != before+1 {
		t.Fatalf("PlannerFallbacks = %d, want %d", after, before+1)
	}

	// The mixed join keeps answering through its leaf fallback too.
	if res := exec1(t, e, mixed); len(res.Rows) != 3 {
		t.Fatalf("mixed rows during outage = %v", res.Rows)
	}
}

func TestResolveAllInDoubtDrainsWithRetries(t *testing.T) {
	inj := faults.New(3)
	inj.SetSleep(func(time.Duration) {})
	e := New(Config{
		ExtendedStorageDir: t.TempDir(),
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) {}},
	})
	exec1(t, e, `CREATE TABLE psa (id BIGINT) USING EXTENDED STORAGE`)
	// Phase 2 fails at commit time and twice more during resolution.
	inj.FailN("txn.commit.extstore:psa", 1)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psa VALUES (1)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	iv := exec1(t, e, `SELECT transaction_id, decision, resolution_attempts FROM M_INDOUBT_TRANSACTIONS()`)
	if len(iv.Rows) != 1 || iv.Rows[0][1].String() != "COMMIT" {
		t.Fatalf("M_INDOUBT_TRANSACTIONS = %v", iv.Rows)
	}
	inj.FailN("txn.commit.extstore:psa", 2)
	if err := e.ResolveAllInDoubt(); err != nil {
		t.Fatalf("resolver must absorb two failed re-deliveries: %v", err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
		t.Fatalf("in-doubt after resolver: %v", ind)
	}
	res := exec1(t, e, `SELECT COUNT(*) FROM psa`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("committed row lost: %v", res.Rows[0][0])
	}
	if m := e.Metrics.Snapshot(); m.InDoubtResolved != 1 {
		t.Fatalf("InDoubtResolved = %d, want 1", m.InDoubtResolved)
	}
	// Branch drained: a second run is a no-op, not an error.
	if err := e.ResolveAllInDoubt(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteCallRetriesAndBreaks(t *testing.T) {
	e, inj, _, _ := newResilientSetup(t)
	// remoteCall is exercised through the same breaker as queries; check
	// the classified error surfaces once retries drain on a fatal fault.
	inj.FailFatal("fed.query.fake1", 1)
	_, err := e.ExecuteContext(context.Background(), `SELECT k FROM V_T WHERE k = 1`)
	if err == nil {
		t.Fatal("fatal fault must fail the statement")
	}
	if !faults.IsFatal(err) {
		t.Fatalf("fatal classification lost: %v", err)
	}
	// A single fatal failure is below the threshold: circuit stays closed
	// and the next statement succeeds without retries.
	if st := e.Health().Breaker("FAKE1").State(); st != faults.BreakerClosed {
		t.Fatalf("breaker = %v, want CLOSED", st)
	}
	if res := exec1(t, e, `SELECT k FROM V_T WHERE k = 1`); len(res.Rows) == 0 {
		t.Fatal("source must serve again")
	}
}

func TestClassifiedErrorsSurviveEngineWrapping(t *testing.T) {
	e, inj, _, _ := newResilientSetup(t)
	inj.FailN("fed.query.fake1", 100)
	_, err := e.ExecuteContext(context.Background(), `SELECT k, v FROM V_T WHERE v = 'zzz'`)
	if err == nil {
		t.Fatal("want error")
	}
	if !faults.IsTransient(err) || !faults.IsClassified(err) {
		t.Fatalf("classification lost through planner wrapping: %v", err)
	}
	if errors.Is(err, faults.ErrCircuitOpen) {
		t.Fatalf("first failure must be the injected fault, not a breaker rejection: %v", err)
	}
}

// fakeFuncAdapter adds a virtual-function surface to the fake adapter so
// the fed.call.* guard can be exercised without a Hadoop cluster.
type fakeFuncAdapter struct {
	*fakeAdapter
	cmu   sync.Mutex
	calls int
}

func (a *fakeFuncAdapter) CallFunction(config map[string]string, schema *value.Schema) (*value.Rows, error) {
	a.cmu.Lock()
	a.calls++
	a.cmu.Unlock()
	rows := value.NewRows(schema)
	rows.Append(value.Row{value.NewInt(1), value.NewString("a")})
	rows.Append(value.Row{value.NewInt(2), value.NewString("b")})
	return rows, nil
}

func (a *fakeFuncAdapter) callCount() int {
	a.cmu.Lock()
	defer a.cmu.Unlock()
	return a.calls
}

func TestRemoteCallRetriesTransient(t *testing.T) {
	// The injector is built inline (not via newResilientSetup) so the
	// guardcall coverage gate can statically tie the fed.call schedule
	// below to this engine's fault plan.
	inj := faults.New(7)
	inj.SetSleep(func(time.Duration) {})
	e := New(Config{
		ExtendedStorageDir: t.TempDir(),
		Faults:             inj,
		Retry:              faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}},
		BreakerThreshold:   2,
		BreakerCooldown:    time.Second,
	})
	fake := &fakeAdapter{
		schema: value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "v", Kind: value.KindVarchar},
		),
	}
	ffa := &fakeFuncAdapter{fakeAdapter: fake}
	e.Registry().Register("fakefunc", func(config, credentials map[string]string) (fed.Adapter, error) {
		return ffa, nil
	})
	exec1(t, e, `CREATE REMOTE SOURCE FAKE2 ADAPTER "fakefunc" CONFIGURATION 'DSN=fake'`)
	exec1(t, e, `CREATE VIRTUAL FUNCTION SENSOR_ROWS()
		RETURNS TABLE (K BIGINT, V VARCHAR(10))
		CONFIGURATION 'job=sensor'
		AT FAKE2`)
	inj.FailN("fed.call.fake2", 2)
	res := exec1(t, e, `SELECT K, V FROM SENSOR_ROWS()`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if ffa.callCount() != 1 {
		t.Fatalf("adapter calls = %d, want 1 (injector failed before the adapter)", ffa.callCount())
	}
	m := e.Metrics.Snapshot()
	if m.RemoteRetries != 2 {
		t.Fatalf("RemoteRetries = %d, want 2", m.RemoteRetries)
	}
}

// The fallback cache keys a statement that only names columns by its FROM
// and WHERE: once SELECT k, v FROM V_W has succeeded and the source is
// down, SELECT k, v answers from its own entry and a leaf that ships
// SELECT V_W.v from that entry's v column. A statement that needs a column
// no entry holds gets the classified error, never a NULL column.
func TestFallbackServesCoveredColumns(t *testing.T) {
	e, inj, _, _ := newResilientSetup(t)
	ctx := context.Background()
	w := &fakeAdapter{
		project: true,
		schema: value.NewSchema(
			value.Column{Name: "k", Kind: value.KindInt},
			value.Column{Name: "v", Kind: value.KindVarchar},
			value.Column{Name: "w", Kind: value.KindInt},
		),
		data: []value.Row{
			{value.NewInt(1), value.NewString("a"), value.NewInt(10)},
			{value.NewInt(2), value.NewString("b"), value.NewInt(20)},
			{value.NewInt(3), value.NewString("c"), value.NewInt(30)},
		},
	}
	e.Registry().Register("wideadapter", func(config, credentials map[string]string) (fed.Adapter, error) {
		return w, nil
	})
	exec1(t, e, `CREATE REMOTE SOURCE FAKE2 ADAPTER "wideadapter" CONFIGURATION 'DSN=wide'`)
	exec1(t, e, `CREATE VIRTUAL TABLE V_W AT "FAKE2"."r"."r"."w"`)

	exec1(t, e, `SELECT k, v FROM V_W`)
	inj.FailN("fed.query.fake2", 1000)
	for i := 0; i < 2; i++ {
		if res := exec1(t, e, `SELECT k, v FROM V_W`); len(res.Rows) != 3 || !strings.Contains(res.Plan, "fallback cache)") {
			t.Fatalf("run %d: rows %v, plan:\n%s", i, res.Rows, res.Plan)
		}
	}
	if st := e.Health().Breaker("FAKE2").State(); st != faults.BreakerOpen {
		t.Fatalf("breaker = %v, want OPEN", st)
	}

	res := exec1(t, e, `SELECT v FROM V_W`)
	if !strings.Contains(res.Plan, "Remote Row Scan [FAKE2] (3 rows, fallback cache)") || !strings.Contains(res.Plan, "shipped: SELECT V_W.v FROM") {
		t.Fatalf("SELECT v must come from the covering entry through its leaf:\n%s", res.Plan)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].String())
	}
	if strings.Join(got, ",") != "a,b,c" || len(res.Schema.Cols) != 1 {
		t.Fatalf("SELECT v = %v (%v), want a,b,c", res.Rows, res.Schema)
	}
	if res := exec1(t, e, `SELECT k, v FROM V_W`); len(res.Rows) != 3 || res.Rows[2][0].Int() != 3 || res.Rows[2][1].String() != "c" {
		t.Fatalf("SELECT k, v = %v", res.Rows)
	}

	for _, sql := range []string{`SELECT w FROM V_W`, `SELECT k, w FROM V_W`, `SELECT v FROM V_W WHERE w > 10`} {
		res, err := e.ExecuteContext(ctx, sql)
		if err == nil {
			t.Fatalf("%s must fail while the source is down and no entry holds w, got %v", sql, res.Rows)
		}
		if !errors.Is(err, faults.ErrCircuitOpen) || !faults.IsClassified(err) {
			t.Fatalf("%s: error must be the classified open circuit: %v", sql, err)
		}
	}
}
