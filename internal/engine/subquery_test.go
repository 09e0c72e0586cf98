package engine

import (
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"hana/internal/dist"
	"hana/internal/tpch"
	"hana/internal/value"
)

// x NOT IN (empty subquery) is TRUE for every row, NULL x included — on the
// conjunct form an in-memory outer table takes and on the null-aware anti
// join an extended-storage outer table keeps.
func TestNotInOverEmptySubqueryKeepsNullOuterRows(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE b (y BIGINT)`)
	exec1(t, e, `INSERT INTO b VALUES (1), (2)`)
	for _, ddl := range []string{
		`CREATE TABLE a (n BIGINT, x BIGINT)`,
		`CREATE TABLE a (n BIGINT, x BIGINT) USING EXTENDED STORAGE`,
	} {
		exec1(t, e, ddl)
		exec1(t, e, `INSERT INTO a VALUES (1, 1), (2, NULL), (3, 3), (4, 2)`)
		res := exec1(t, e, `SELECT n FROM a WHERE x NOT IN (SELECT y FROM b WHERE y > 100)`)
		if len(res.Rows) != 4 {
			t.Errorf("%s: NOT IN over an empty subquery kept %d of 4 rows\n%s", ddl, len(res.Rows), res.Plan)
		}
		res = exec1(t, e, `SELECT n FROM a WHERE x NOT IN (SELECT y FROM b)`)
		if fmt.Sprint(res.Rows) != "[[3]]" {
			t.Errorf("%s: NOT IN (1, 2) = %v, want [[3]]", ddl, res.Rows)
		}
		exec1(t, e, `DROP TABLE a`)
	}
}

// A table provider has no schema until it runs, so a subquery predicate over
// it stays a semi join on top.
func TestSubqueryOverTableProviderKeepsSemiJoin(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE names (n VARCHAR(20))`)
	exec1(t, e, `INSERT INTO names VALUES ('names'), ('nope')`)
	res := exec1(t, e, `SELECT table_name FROM M_TABLES() WHERE table_name IN (SELECT n FROM names)`)
	if fmt.Sprint(res.Rows) != "[[names]]" || !strings.Contains(res.Plan, "Semi Join") {
		t.Fatalf("rows %v\n%s", res.Rows, res.Plan)
	}
}

// loadTPCH creates and bulk-loads the TPC-H tables at scale factor sf, with
// their statistics.
func loadTPCH(t *testing.T, e *Engine, sf float64) {
	t.Helper()
	for name, rows := range tpch.Generate(sf, 2015).Tables {
		var cols []string
		for _, c := range tpch.Schemas()[name].Cols {
			cols = append(cols, c.Name+" "+c.Kind.String())
		}
		exec1(t, e, fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(cols, ", ")))
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatal(err)
		}
		if err := e.Analyze(name); err != nil {
			t.Fatal(err)
		}
	}
}

// Q18's IN-subquery filters orders and, through o_orderkey = l_orderkey,
// lineitem inside their scans; the plan names the key set by its size.
func TestSubqueryKeySetPlanText(t *testing.T) {
	e := newTestEngine(t)
	loadTPCH(t, e, 0.002)
	q18 := strings.Replace(tpch.Queries()[18].SQL, "> 212", "> 150", 1)
	res := exec1(t, e, q18)
	for _, want := range []string{
		`Column Scan \[orders\] \(\d+ rows, vectorized\)\n\s+filter: \(o_orderkey IN \(<\d+ values>\)\)\n`,
		`Column Scan \[lineitem\] \(\d+ rows, vectorized\)\n\s+filter: \(l_orderkey IN \(<\d+ values>\)\)\n`,
		`\n  Subquery Key Set: \(o_orderkey IN \(<\d+ values>\)\) \(\d+ rows\)\n`,
	} {
		if !regexp.MustCompile(want).MatchString(res.Plan) {
			t.Errorf("plan lacks %s:\n%s", want, res.Plan)
		}
	}
	if strings.Contains(res.Plan, "Semi Join") {
		t.Errorf("Q18 still runs a post-join semi join:\n%s", res.Plan)
	}
}

// At two shards, an aggregate over one sharded table ships as an aggregate
// fragment, float SUM and AVG included (their partial sums merge exactly).
// A subquery key set ships inside the fragment unless it has more keys than
// the rows the scan is estimated to return without it: Q18's set cuts all of
// orders and lineitem and ships; Q4's is larger than the orders of one
// quarter and filters the gathered rows at the coordinator.
func TestDistPlansShipAggregatesAndSmallKeySets(t *testing.T) {
	e := New(Config{ExtendedStorageDir: t.TempDir(), Topology: dist.Topology{Shards: 2}})
	loadTPCH(t, e, 0.005)
	for _, c := range []struct {
		id        int
		want, not []string
	}{
		{1, []string{`Dist Hash Aggregate [lineitem]`}, nil},
		{6, []string{`Dist Hash Aggregate [lineitem]`}, nil},
		{18, []string{
			`Subquery Key Set: (o_orderkey IN (<`,
			`Dist Hash Aggregate [lineitem] (7500 rows, 1 group cols, 2 shards)`,
			`shipped filter: (o_orderkey IN (<`,
			`shipped filter: (l_orderkey IN (<`,
		}, []string{"coordinator filter"}},
		{4, []string{`coordinator filter: (o_orderkey IN (<`}, nil},
	} {
		plan := exec1(t, e, "EXPLAIN "+tpch.Queries()[c.id].SQL).Plan
		for _, w := range c.want {
			if !strings.Contains(plan, w) {
				t.Errorf("Q%d: plan lacks %q:\n%s", c.id, w, plan)
			}
		}
		for _, n := range c.not {
			if strings.Contains(plan, n) {
				t.Errorf("Q%d: plan has %q:\n%s", c.id, n, plan)
			}
		}
	}
}

// subqueryReference evaluates `base WHERE key <kind> (sub)` the slow way:
// run the block without the subquery predicate (base selects the outer keys
// as extra last columns, one per column of sub), run the subquery on its
// own, and decide each row by a linear three-valued scan of the keys. An
// empty sub means base is the whole statement with the key list written out
// by hand.
func subqueryReference(t *testing.T, e *Engine, kind, base, sub string, opts ...ExecOption) []value.Row {
	t.Helper()
	run := func(sql string) *Result {
		res, err := e.ExecuteContext(context.Background(), sql, append(opts, WithParallelism(1))...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	if sub == "" {
		return run(base).Rows
	}
	keys := run(sub)
	nk := keys.Schema.Len()
	var out []value.Row
	for _, row := range run(base).Rows {
		k := row[len(row)-nk:]
		matched, sawNull := false, false
		for _, kr := range keys.Rows {
			eq := true
			for i := range kr {
				if kr[i].IsNull() {
					sawNull = true
				}
				eq = eq && !kr[i].IsNull() && !k[i].IsNull() && value.Compare(k[i], kr[i]) == 0
			}
			matched = matched || eq
		}
		var keep bool
		switch kind {
		case "IN", "EXISTS":
			keep = matched
		case "NOT EXISTS":
			keep = !matched
		case "NOT IN":
			keep = len(keys.Rows) == 0 || (!k[0].IsNull() && !matched && !sawNull)
		}
		if keep {
			out = append(out, row[:len(row)-nk])
		}
	}
	return out
}

func TestSubqueryPlacementEquivalence(t *testing.T) {
	// On two shards a key set ships inside the fragment unless it has more
	// keys than the rows its leaf is estimated to return without it; the
	// "larger than the estimate" case filters at the coordinator. A
	// threshold of 8 keeps most joins off the broadcast path.
	load := func(shards int) *Engine {
		e := New(Config{ExtendedStorageDir: t.TempDir(), Parallelism: 4, SemiJoinThreshold: 8,
			Topology: dist.Topology{Shards: shards}})
		exec1(t, e, `CREATE TABLE a (n BIGINT, x BIGINT, g VARCHAR(8))`)
		exec1(t, e, `CREATE TABLE ax (n BIGINT, x BIGINT, g VARCHAR(8)) USING EXTENDED STORAGE`)
		exec1(t, e, `CREATE TABLE b (y DOUBLE, z BIGINT)`)
		exec1(t, e, `CREATE TABLE c (n BIGINT, w BIGINT)`)
		var a, b, c []value.Row
		for i := 0; i < 400; i++ {
			x := value.NewInt(int64(i % 50))
			if i%11 == 0 {
				x = value.Null
			}
			a = append(a, value.Row{value.NewInt(int64(i)), x, value.NewString(fmt.Sprintf("g%d", i%3))})
			if i%4 != 0 {
				c = append(c, value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 7))})
			}
		}
		for i := 0; i < 40; i++ {
			y := value.NewDouble(float64(i))
			switch {
			case i%13 == 5:
				y = value.Null
			case i%4 == 1:
				y = value.NewDouble(float64(i) + 0.5)
			}
			b = append(b, value.Row{y, value.NewInt(int64(i * 3 % 60))})
		}
		for name, rows := range map[string][]value.Row{"a": a, "ax": a, "b": b, "c": c} {
			if err := e.BulkLoad(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	shards := []int{0, 2}
	engines := []*Engine{load(0), load(2)}

	// plan, when set, is the node the statement's plan must show: the
	// post-join semi/anti join, which an extended-storage outer table, two
	// correlation keys or an uncorrelated EXISTS keep.
	cases := []struct{ name, kind, sql, base, sub, plan string }{
		{"IN, mixed kinds, large set", "IN",
			`SELECT n, g FROM a WHERE g <> 'g1' AND x IN (SELECT y FROM b)`,
			`SELECT n, g, x FROM a WHERE g <> 'g1'`, `SELECT y FROM b`, ""},
		{"IN, set larger than the estimate", "IN",
			`SELECT n FROM a WHERE n < 300 AND g = 'g1' AND x IN (SELECT y FROM b)`,
			`SELECT n, x FROM a WHERE n < 300 AND g = 'g1'`, `SELECT y FROM b`, ""},
		{"IN, small set", "IN",
			`SELECT n FROM a WHERE x IN (SELECT y FROM b WHERE y < 5)`,
			`SELECT n, x FROM a`, `SELECT y FROM b WHERE y < 5`, ""},
		{"IN, empty set", "IN",
			`SELECT n FROM a WHERE x IN (SELECT y FROM b WHERE y > 1000)`,
			`SELECT n, x FROM a`, `SELECT y FROM b WHERE y > 1000`, ""},
		{"IN under a shippable aggregate, expanded by hand", "",
			`SELECT g, COUNT(*) FROM a WHERE x IN (SELECT y FROM b WHERE y < 5) GROUP BY g`,
			`SELECT g, COUNT(*) FROM a WHERE x IN (0, 1.5, 2, 3, 4) GROUP BY g`, "", ""},
		{"NOT IN, NULL in the subquery result", "NOT IN",
			`SELECT n FROM a WHERE x NOT IN (SELECT y FROM b)`,
			`SELECT n, x FROM a`, `SELECT y FROM b`, ""},
		{"NOT IN, NULL outer keys", "NOT IN",
			`SELECT n FROM a WHERE x NOT IN (SELECT y FROM b WHERE y IS NOT NULL)`,
			`SELECT n, x FROM a`, `SELECT y FROM b WHERE y IS NOT NULL`, ""},
		{"NOT IN, empty set", "NOT IN",
			`SELECT n FROM a WHERE x NOT IN (SELECT y FROM b WHERE y > 1000)`,
			`SELECT n, x FROM a`, `SELECT y FROM b WHERE y > 1000`, ""},
		{"EXISTS", "EXISTS",
			`SELECT n FROM a WHERE EXISTS (SELECT * FROM b WHERE z = x AND y > 2)`,
			`SELECT n, x FROM a`, `SELECT z FROM b WHERE y > 2`, ""},
		{"NOT EXISTS", "NOT EXISTS",
			`SELECT n FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE z = x AND y > 2)`,
			`SELECT n, x FROM a`, `SELECT z FROM b WHERE y > 2`, ""},
		{"NOT EXISTS, empty set", "NOT EXISTS",
			`SELECT n FROM a WHERE NOT EXISTS (SELECT * FROM b WHERE z = x AND y > 1000)`,
			`SELECT n, x FROM a`, `SELECT z FROM b WHERE y > 1000`, ""},
		{"IN, filter derived through the join key", "IN",
			`SELECT a.n, w FROM a, c WHERE a.n = c.n AND a.n IN (SELECT z FROM b)`,
			`SELECT a.n, w, a.n FROM a, c WHERE a.n = c.n`, `SELECT z FROM b`, ""},
		{"IN, expression key spanning two relations", "IN",
			`SELECT a.n FROM a, c WHERE a.n = c.n AND x + w IN (SELECT y FROM b)`,
			`SELECT a.n, x + w FROM a, c WHERE a.n = c.n`, `SELECT y FROM b`, ""},
		{"IN on the null-supplying side of a LEFT OUTER JOIN", "IN",
			`SELECT a.n, w FROM a LEFT OUTER JOIN c ON a.n = c.n WHERE w IN (SELECT y FROM b)`,
			`SELECT a.n, w, w FROM a LEFT OUTER JOIN c ON a.n = c.n`, `SELECT y FROM b`, ""},
		{"NOT IN over nothing on the null-supplying side", "NOT IN",
			`SELECT a.n, w FROM a LEFT OUTER JOIN c ON a.n = c.n WHERE w NOT IN (SELECT y FROM b WHERE y > 1000)`,
			`SELECT a.n, w, w FROM a LEFT OUTER JOIN c ON a.n = c.n`, `SELECT y FROM b WHERE y > 1000`, ""},
		{"NOT EXISTS on the null-supplying side", "NOT EXISTS",
			`SELECT a.n, w FROM a LEFT OUTER JOIN c ON a.n = c.n WHERE NOT EXISTS (SELECT * FROM b WHERE y = w)`,
			`SELECT a.n, w, w FROM a LEFT OUTER JOIN c ON a.n = c.n`, `SELECT y FROM b`, ""},
		{"post-join: extended outer, IN, NULL in the set", "IN",
			`SELECT n FROM ax WHERE x IN (SELECT y FROM b)`,
			`SELECT n, x FROM ax`, `SELECT y FROM b`, "Semi Join (IN/EXISTS subquery) (203 rows)\n"},
		{"post-join: extended outer, IN, empty set", "IN",
			`SELECT n FROM ax WHERE x IN (SELECT y FROM b WHERE y > 1000)`,
			`SELECT n, x FROM ax`, `SELECT y FROM b WHERE y > 1000`, "Semi Join (IN/EXISTS subquery) (0 rows)\n"},
		{"post-join: extended outer, NOT IN, NULL in the set", "NOT IN",
			`SELECT n FROM ax WHERE x NOT IN (SELECT y FROM b)`,
			`SELECT n, x FROM ax`, `SELECT y FROM b`, "Anti Join (NOT IN/NOT EXISTS subquery) (0 rows)\n"},
		{"post-join: extended outer, NOT IN, NULL outer keys", "NOT IN",
			`SELECT n FROM ax WHERE x NOT IN (SELECT y FROM b WHERE y IS NOT NULL)`,
			`SELECT n, x FROM ax`, `SELECT y FROM b WHERE y IS NOT NULL`, "Anti Join (NOT IN/NOT EXISTS subquery) (160 rows)\n"},
		{"post-join: extended outer, NOT IN, empty set", "NOT IN",
			`SELECT n FROM ax WHERE x NOT IN (SELECT y FROM b WHERE y > 1000)`,
			`SELECT n, x FROM ax`, `SELECT y FROM b WHERE y > 1000`, "Anti Join (NOT IN/NOT EXISTS subquery) (400 rows)\n"},
		{"post-join: extended outer, EXISTS", "EXISTS",
			`SELECT n FROM ax WHERE EXISTS (SELECT * FROM b WHERE z = x AND y > 2)`,
			`SELECT n, x FROM ax`, `SELECT z FROM b WHERE y > 2`, "Semi Join (IN/EXISTS subquery) (decorrelated)"},
		{"post-join: extended outer, NOT EXISTS, NULL outer keys", "NOT EXISTS",
			`SELECT n FROM ax WHERE NOT EXISTS (SELECT * FROM b WHERE z = x AND y > 2)`,
			`SELECT n, x FROM ax`, `SELECT z FROM b WHERE y > 2`, "Anti Join (NOT IN/NOT EXISTS subquery) (decorrelated)"},
		{"post-join: extended outer, NOT EXISTS, empty set", "NOT EXISTS",
			`SELECT n FROM ax WHERE NOT EXISTS (SELECT * FROM b WHERE z = x AND y > 1000)`,
			`SELECT n, x FROM ax`, `SELECT z FROM b WHERE y > 1000`, "Anti Join (NOT IN/NOT EXISTS subquery) (decorrelated)"},
		{"post-join: EXISTS with two correlation keys", "EXISTS",
			`SELECT a.n FROM a WHERE EXISTS (SELECT * FROM c WHERE c.n = a.n AND w = x)`,
			`SELECT n, n, x FROM a`, `SELECT n, w FROM c`, "Semi Join (IN/EXISTS subquery) (decorrelated)"},
		{"post-join: NOT EXISTS with two correlation keys", "NOT EXISTS",
			`SELECT a.n FROM a WHERE NOT EXISTS (SELECT * FROM c WHERE c.n = a.n AND w = x)`,
			`SELECT n, n, x FROM a`, `SELECT n, w FROM c`, "Anti Join (NOT IN/NOT EXISTS subquery) (decorrelated)"},
		{"post-join: uncorrelated EXISTS, true", "",
			`SELECT n FROM a WHERE EXISTS (SELECT * FROM b WHERE y > 2)`,
			`SELECT n FROM a`, "", "Exists(const true)"},
		{"post-join: uncorrelated EXISTS, false", "",
			`SELECT n FROM a WHERE EXISTS (SELECT * FROM b WHERE y > 1000)`,
			`SELECT n FROM a WHERE n < 0`, "", "Exists(const false)"},
	}
	check := func(t *testing.T, kind, sql, base, sub, plan string, optsFor func(*Engine) []ExecOption) []value.Row {
		t.Helper()
		want := fmt.Sprint(subqueryReference(t, engines[0], kind, base, sub, optsFor(engines[0])...))
		var rows []value.Row
		for i, e := range engines {
			for _, width := range []int{1, 4} {
				res, err := e.ExecuteContext(context.Background(), sql, append(optsFor(e), WithParallelism(width))...)
				if err != nil {
					t.Fatalf("shards %d width %d: %v", shards[i], width, err)
				}
				if got := fmt.Sprint(res.Rows); got != want {
					t.Fatalf("shards %d width %d:\ngot  %s\nwant %s\n%s", shards[i], width, got, want, res.Plan)
				}
				if !strings.Contains(res.Plan, plan) {
					t.Fatalf("shards %d width %d: plan lacks %q:\n%s", shards[i], width, plan, res.Plan)
				}
				rows = res.Rows
			}
		}
		return rows
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check(t, tc.kind, tc.sql, tc.base, tc.sub, tc.plan, func(*Engine) []ExecOption { return nil })
		})
	}
	// 37 keys against 400 × 0.33 × 0.05 ≈ 7 estimated rows.
	if plan := exec1(t, engines[1], "EXPLAIN "+cases[1].sql).Plan; !strings.Contains(plan, "coordinator filter: (x IN (<") {
		t.Errorf("%s: the key set should filter at the coordinator:\n%s", cases[1].name, plan)
	}

	// A read inside an explicit transaction sees the transaction's own
	// uncommitted rows on both sides of the predicate.
	t.Run("own uncommitted rows", func(t *testing.T) {
		txs := map[*Engine][]ExecOption{}
		for _, e := range engines {
			tx := e.Begin()
			txs[e] = []ExecOption{WithTx(tx)}
			for _, sql := range []string{`INSERT INTO a VALUES (1000, 777, 'tx')`, `INSERT INTO b VALUES (777, 1)`} {
				if _, err := e.ExecuteContext(context.Background(), sql, WithTx(tx)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows := check(t, "IN", `SELECT n FROM a WHERE x IN (SELECT y FROM b WHERE y > 100)`,
			`SELECT n, x FROM a`, `SELECT y FROM b WHERE y > 100`, "", func(e *Engine) []ExecOption { return txs[e] })
		if fmt.Sprint(rows) != "[[1000]]" {
			t.Fatalf("rows = %v, want the transaction's own row 1000", rows)
		}
	})
}

// A subquery in the select list, HAVING or ORDER BY is refused when the
// block is analysed, with a classified "not supported" error on every
// placement, rather than failing in evaluation with an internal one.
func TestSubqueryOutsideWhereIsUnsupported(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		ddl  string
	}{
		{"column", Config{}, `CREATE TABLE t (a BIGINT, b BIGINT)`},
		{"row", Config{}, `CREATE ROW TABLE t (a BIGINT, b BIGINT)`},
		{"2 shards", Config{Topology: dist.Topology{Shards: 2}}, `CREATE TABLE t (a BIGINT, b BIGINT)`},
	} {
		e := New(c.cfg)
		exec1(t, e, c.ddl)
		exec1(t, e, `INSERT INTO t VALUES (1, 10), (2, 20)`)
		for _, q := range []string{
			`SELECT a, (SELECT MAX(b) FROM t) FROM t`,
			`SELECT a IN (SELECT b FROM t) FROM t`,
			`SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) < (SELECT MAX(b) FROM t)`,
			`SELECT MAX(a) FROM t HAVING MAX(a) < (SELECT MAX(b) FROM t)`,
			`SELECT a FROM t ORDER BY (SELECT MAX(b) FROM t)`,
		} {
			if _, err := e.ExecuteContext(context.Background(), q); err == nil || !strings.Contains(err.Error(), "is not supported") {
				t.Errorf("%s: %s: err = %v, want a not-supported error", c.name, q, err)
			}
		}
	}
}
