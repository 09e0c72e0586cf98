package exec

import (
	"fmt"
	"strings"
	"testing"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// frontSchemas is a SchemaOf over two base tables, t(k, v) and s(k, w).
func frontSchemas(te sqlparse.TableExpr) (*value.Schema, error) {
	ref, ok := te.(*sqlparse.TableRef)
	if !ok {
		return nil, fmt.Errorf("unsupported FROM element %T", te)
	}
	switch strings.ToLower(ref.Name()) {
	case "t":
		return intSchema("k", "v").Qualify(ref.Binding()), nil
	case "s":
		return intSchema("k", "w").Qualify(ref.Binding()), nil
	}
	return nil, fmt.Errorf("table %s not found", ref.Name())
}

func parseSelect(t *testing.T, sql string) *sqlparse.SelectStmt {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparse.SelectStmt)
}

func TestFromSchemaResolvesJoinsAndDerivedTables(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM t JOIN (SELECT k AS sk, w FROM s) d ON t.k = d.sk`)
	schema, err := FromSchema(sel.From, frontSchemas)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(schema.Names(), ","), "t.k,t.v,d.sk,d.w"; got != want {
		t.Errorf("schema %s, want %s", got, want)
	}
	if _, err := FromSchema(parseSelect(t, `SELECT * FROM nope`).From, frontSchemas); err == nil {
		t.Error("an unknown table resolved")
	}
}

func TestSplitWhereInlinesScalarSubqueries(t *testing.T) {
	var result *value.Rows
	run := func(*sqlparse.SelectStmt) (*value.Rows, error) { return result, nil }
	sel := parseSelect(t, `SELECT k FROM t WHERE v > (SELECT MAX(w) FROM s) AND k IN (SELECT k FROM s) AND NOT EXISTS (SELECT 1 FROM s)`)

	result = &value.Rows{Schema: intSchema("m"), Data: rowsOf([]int64{7})}
	conjs, preds, err := SplitWhere(sel.Where, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(conjs) != 1 || conjs[0].SQL() != "(v > 7)" {
		t.Errorf("conjuncts %v, want [(v > 7)]", conjs)
	}
	if len(preds) != 2 || preds[0].Outer == nil || preds[0].Anti || preds[1].Outer != nil || !preds[1].Anti {
		t.Errorf("predicates %+v, want IN then NOT EXISTS", preds)
	}

	result = &value.Rows{Schema: intSchema("m")}
	if conjs, _, err := SplitWhere(sel.Where, run); err != nil || conjs[0].SQL() != "(v > NULL)" {
		t.Errorf("no row: %v, %v; want (v > NULL)", conjs, err)
	}
	result = &value.Rows{Schema: intSchema("m"), Data: rowsOf([]int64{1}, []int64{2})}
	if _, _, err := SplitWhere(sel.Where, run); err == nil {
		t.Error("a scalar subquery of two rows was inlined")
	}
	result = &value.Rows{Schema: intSchema("m", "n"), Data: rowsOf([]int64{1, 2})}
	if _, _, err := SplitWhere(sel.Where, run); err == nil {
		t.Error("a scalar subquery of two columns was inlined")
	}
}

func TestDecorrelate(t *testing.T) {
	outer := intSchema("k", "v").Qualify("t")
	pred := func(sql string) sqlparse.SubqueryPredicate {
		p, ok := sqlparse.AsSubqueryPredicate(parseSelect(t, sql).Where)
		if !ok {
			t.Fatalf("%s: no subquery predicate", sql)
		}
		return p
	}
	keySQL := func(keys []expr.Expr) string {
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = k.SQL()
		}
		return strings.Join(parts, ",")
	}
	for _, c := range []struct{ sql, keys, inner string }{
		{`SELECT k FROM t WHERE t.v IN (SELECT w FROM s)`, "t.v", "SELECT w FROM s"},
		{`SELECT k FROM t WHERE EXISTS (SELECT w FROM s WHERE s.k = t.k AND s.w > 3)`, "t.k", "SELECT s.k FROM s WHERE (s.w > 3)"},
		{`SELECT k FROM t WHERE NOT EXISTS (SELECT w FROM s WHERE t.v = s.w AND s.k = t.k)`, "t.v,t.k", "SELECT s.w, s.k FROM s"},
		{`SELECT k FROM t WHERE EXISTS (SELECT w FROM s WHERE s.w > 3)`, "", "SELECT w FROM s WHERE (s.w > 3) LIMIT 1"},
	} {
		keys, inner, err := Decorrelate(pred(c.sql), outer, frontSchemas)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := keySQL(keys); got != c.keys {
			t.Errorf("%s: keys %q, want %q", c.sql, got, c.keys)
		}
		if got := sqlparse.RenderSelect(inner); got != c.inner {
			t.Errorf("%s: inner %q, want %q", c.sql, got, c.inner)
		}
	}

	// An uncorrelated EXISTS is one value for every outer row.
	for _, c := range []struct {
		sql   string
		rows  int
		holds bool
	}{
		{`SELECT k FROM t WHERE EXISTS (SELECT w FROM s)`, 1, true},
		{`SELECT k FROM t WHERE EXISTS (SELECT w FROM s)`, 0, false},
		{`SELECT k FROM t WHERE NOT EXISTS (SELECT w FROM s)`, 1, false},
		{`SELECT k FROM t WHERE NOT EXISTS (SELECT w FROM s)`, 0, true},
	} {
		p := pred(c.sql)
		_, probe, err := Decorrelate(p, outer, frontSchemas)
		if err != nil {
			t.Fatal(err)
		}
		run := func(*sqlparse.SelectStmt) (*value.Rows, error) {
			return &value.Rows{Schema: intSchema("w"), Data: rowsOf(make([][]int64, c.rows)...)}, nil
		}
		if holds, err := ExistsHolds(p, probe, run); err != nil || holds != c.holds {
			t.Errorf("%s over %d rows: %v, %v; want %v", c.sql, c.rows, holds, err, c.holds)
		}
	}
}
