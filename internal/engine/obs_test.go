package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hana/internal/obs"
	"hana/internal/value"
)

// fedJoinSQL joins a virtual table with a small local table: the planner
// must fetch V_CUSTOMER remotely (with a semijoin IN-list pushed from
// nation) and hash-join locally — every span family shows up in the trace.
const fedJoinSQL = `SELECT c_name, n_name FROM V_CUSTOMER, nation
	WHERE c_nationkey = n_nationkey AND c_mktsegment = 'HOUSEHOLD'`

func TestExplainTraceFederated(t *testing.T) {
	e, _ := newFederatedSetup(t)
	res := exec1(t, e, "EXPLAIN TRACE "+fedJoinSQL)
	if res.Message != "traced" {
		t.Fatalf("message = %q", res.Message)
	}
	if res.Trace == nil {
		t.Fatal("EXPLAIN TRACE must attach the trace to the result")
	}
	if got := res.Schema.Names(); fmt.Sprint(got) != "[trace_id span depth duration_us detail]" {
		t.Fatalf("schema = %v", got)
	}
	topo := res.Trace.Topology()
	for _, span := range []string{"query", "parse", "stmt", "plan", "exec", "remote", "morsels"} {
		if !strings.Contains(topo, span) {
			t.Fatalf("topology missing %q span:\n%s", span, topo)
		}
	}
	// The plan span records the chosen federated strategy.
	var planDetail string
	res.Trace.Walk(func(_ int, s *obs.Span) {
		if s.Name() == "plan" {
			planDetail = s.Detail()
		}
	})
	if !strings.Contains(planDetail, "chose semijoin") {
		t.Fatalf("plan span must note the chosen strategy, got %q", planDetail)
	}
	// The morsel spans record per-worker timings.
	var workerAttrs bool
	res.Trace.Walk(func(_ int, s *obs.Span) {
		if s.Name() == "morsels" && strings.Contains(s.Detail(), "w0=") {
			workerAttrs = true
		}
	})
	if !workerAttrs {
		t.Fatal("morsel spans must record per-worker morsel counts")
	}
}

// TestExplainTraceTopologyDeterministic pins the width-independence
// guarantee: timings vary between runs, but the span topology — names and
// nesting — must be identical at parallelism 1 and 4.
func TestExplainTraceTopologyDeterministic(t *testing.T) {
	e, _ := newFederatedSetup(t)
	run := func(width int) string {
		t.Helper()
		res, err := e.ExecuteContext(context.Background(), "EXPLAIN TRACE "+fedJoinSQL, WithParallelism(width))
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace.Topology()
	}
	t1 := run(1)
	t4 := run(4)
	if t1 != t4 {
		t.Fatalf("topology differs between widths:\nwidth 1:\n%s\nwidth 4:\n%s", t1, t4)
	}
}

// TestDMLTraceRecords2PCPhases pins the commit-path spans: an autonomous
// DML statement's trace must show the 2PC phases under its stmt span.
func TestDMLTraceRecords2PCPhases(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE twopc (id BIGINT)`)
	exec1(t, e, `INSERT INTO twopc VALUES (1), (2)`)
	traces := e.Traces().Snapshot()
	tr := traces[len(traces)-1]
	if tr.Statement() != `INSERT INTO twopc VALUES (1), (2)` {
		t.Fatalf("last trace = %q", tr.Statement())
	}
	spans := map[string]bool{}
	tr.Walk(func(_ int, s *obs.Span) { spans[s.Name()] = true })
	for _, want := range []string{"2pc", "2pc:prepare", "2pc:decide", "2pc:commit"} {
		if !spans[want] {
			t.Fatalf("trace missing %q span, got %v", want, spans)
		}
	}
}

func TestQueryTracesView(t *testing.T) {
	e, _ := newFederatedSetup(t)
	exec1(t, e, fedJoinSQL)
	res := exec1(t, e, `SELECT * FROM M_QUERY_TRACES()`)
	stmtCol := res.Schema.MustFind("statement")
	spanCol := res.Schema.MustFind("span")
	spans := map[string]bool{}
	for _, row := range res.Rows {
		if strings.Contains(row[stmtCol].String(), "V_CUSTOMER") {
			spans[row[spanCol].String()] = true
		}
	}
	for _, want := range []string{"query", "parse", "stmt", "plan", "exec", "remote"} {
		if !spans[want] {
			t.Fatalf("M_QUERY_TRACES missing %q span for the federated query, got %v", want, spans)
		}
	}
}

// TestFederationStatsAgreeWithTrace cross-checks the three surfaces: the
// registry-backed M_FEDERATION_STATISTICS view, the typed metrics snapshot,
// and the recorded trace must all report the same remote activity.
func TestFederationStatsAgreeWithTrace(t *testing.T) {
	e, _ := newFederatedSetup(t)
	res := exec1(t, e, fedJoinSQL)
	var remoteSpans int64
	traces := e.Traces().Snapshot()
	traces[len(traces)-1].Walk(func(_ int, s *obs.Span) {
		if s.Name() == "remote" {
			remoteSpans++
		}
	})
	if remoteSpans == 0 {
		t.Fatalf("no remote spans in trace; plan:\n%s", res.Plan)
	}
	m := e.Metrics.Snapshot()
	if m.RemoteQueries != remoteSpans {
		t.Fatalf("metrics RemoteQueries = %d, trace has %d remote spans", m.RemoteQueries, remoteSpans)
	}
	stats := exec1(t, e, `SELECT * FROM M_FEDERATION_STATISTICS()`)
	viewVals := map[string]int64{}
	for _, row := range stats.Rows {
		viewVals[row[0].String()] = row[1].Int()
	}
	if viewVals["remote_queries"] != m.RemoteQueries {
		t.Fatalf("view remote_queries = %d, metrics = %d", viewVals["remote_queries"], m.RemoteQueries)
	}
	if viewVals["semijoins_chosen"] != m.SemiJoinsChosen {
		t.Fatalf("view semijoins_chosen = %d, metrics = %d", viewVals["semijoins_chosen"], m.SemiJoinsChosen)
	}
	if len(stats.Rows) != 11 {
		t.Fatalf("M_FEDERATION_STATISTICS rows = %d, want 11", len(stats.Rows))
	}
}

func TestMViewsEnumeratesRegisteredViews(t *testing.T) {
	e := newTestEngine(t)
	res := exec1(t, e, `SELECT * FROM M_VIEWS()`)
	nameCol := res.Schema.MustFind("view_name")
	colCol := res.Schema.MustFind("column_name")
	seen := map[string]bool{}
	cols := map[string]bool{}
	for _, row := range res.Rows {
		seen[row[nameCol].String()] = true
		cols[row[nameCol].String()+"."+row[colCol].String()] = true
	}
	for _, want := range []string{
		"M_TABLES", "M_REMOTE_SOURCES", "M_VIRTUAL_TABLES",
		"M_FEDERATION_STATISTICS", "M_TRANSACTIONS", "M_REMOTE_SOURCE_HEALTH",
		"M_INDOUBT_TRANSACTIONS", "M_VIEWS", "M_QUERY_TRACES", "M_METRICS",
	} {
		if !seen[want] {
			t.Fatalf("M_VIEWS missing %s; got %v", want, seen)
		}
	}
	if !cols["M_TABLES.table_name"] {
		t.Fatal("M_VIEWS must list typed column metadata")
	}
}

// TestRegisterViewResolvesAsTableFunction: a caller-registered view (the
// mechanism behind the "HANA join" stream integration, §3.2 use case 3) is
// queryable as name(), listed in M_VIEWS() with its declared columns, and
// stops resolving once unregistered.
func TestRegisterViewResolvesAsTableFunction(t *testing.T) {
	e := newTestEngine(t)
	if err := e.RegisterView(obs.ViewDef{
		Name:    "USER_VIEW",
		Columns: []value.Column{{Name: "x", Kind: value.KindInt}},
		Fill: func(out *value.Rows) error {
			out.Append(value.Row{value.NewInt(7)})
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	res := exec1(t, e, `SELECT x FROM USER_VIEW()`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
	views := exec1(t, e, `SELECT column_name FROM M_VIEWS() WHERE view_name = 'USER_VIEW'`)
	if len(views.Rows) != 1 || views.Rows[0][0].String() != "x" {
		t.Fatalf("M_VIEWS rows for USER_VIEW = %v", views.Rows)
	}
	e.Views().Unregister("USER_VIEW")
	if _, err := e.ExecuteContext(context.Background(), `SELECT x FROM USER_VIEW()`); err == nil {
		t.Fatal("unregistered view must not resolve")
	}
}

// TestSnapshotConcurrentWithExecution hammers the observability read paths
// while queries execute — the lock-free registry and the view registry must
// be safe to snapshot mid-flight (run under -race).
func TestSnapshotConcurrentWithExecution(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE stress (k BIGINT, v VARCHAR(10))`)
	exec1(t, e, `INSERT INTO stress VALUES (1,'a'), (2,'b'), (3,'c')`)
	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := e.Obs().Snapshot()
				if _, ok := st.Counter("exec.statements"); !ok {
					t.Error("exec.statements counter missing from snapshot")
					return
				}
				if _, ok, err := e.Views().Rows("M_METRICS"); !ok || err != nil {
					t.Errorf("M_METRICS: ok=%v err=%v", ok, err)
					return
				}
				e.Traces().Snapshot()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		exec1(t, e, `SELECT v, COUNT(*) FROM stress GROUP BY v`)
	}
	close(done)
	wg.Wait()
	if n, _ := e.Obs().Snapshot().Counter("exec.statements"); n < 50 {
		t.Fatalf("exec.statements = %d", n)
	}
}
