package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"hana/internal/value"
)

func testSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "a", Kind: value.KindInt},
		value.Column{Name: "b", Kind: value.KindDouble},
		value.Column{Name: "s", Kind: value.KindVarchar},
		value.Column{Name: "d", Kind: value.KindDate},
	)
}

func testRow() value.Row {
	d, _ := value.ParseDate("1994-06-15")
	return value.Row{value.NewInt(10), value.NewDouble(2.5), value.NewString("HOUSEHOLD"), d}
}

func mustEval(t *testing.T, e Expr) value.Value {
	t.Helper()
	if err := Bind(e, testSchema()); err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(testRow())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticAndComparison(t *testing.T) {
	v := mustEval(t, Bin(OpAdd, Col("a"), Int(5)))
	if v.Int() != 15 {
		t.Fatalf("a+5 = %v", v)
	}
	v = mustEval(t, Bin(OpMul, Col("a"), Col("b")))
	if v.Float() != 25 {
		t.Fatalf("a*b = %v", v)
	}
	v = mustEval(t, Bin(OpGt, Col("a"), Int(9)))
	if !v.Bool() {
		t.Fatal("10 > 9")
	}
	v = mustEval(t, Bin(OpLe, Col("b"), Lit(value.NewDouble(2.5))))
	if !v.Bool() {
		t.Fatal("2.5 <= 2.5")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := Lit(value.Null)
	tr := Lit(value.NewBool(true))
	fa := Lit(value.NewBool(false))

	v := mustEval(t, Bin(OpAnd, null, fa))
	if v.IsNull() || v.Bool() {
		t.Fatal("NULL AND FALSE = FALSE")
	}
	v = mustEval(t, Bin(OpAnd, null, tr))
	if !v.IsNull() {
		t.Fatal("NULL AND TRUE = NULL")
	}
	v = mustEval(t, Bin(OpOr, null, tr))
	if v.IsNull() || !v.Bool() {
		t.Fatal("NULL OR TRUE = TRUE")
	}
	v = mustEval(t, Bin(OpOr, null, fa))
	if !v.IsNull() {
		t.Fatal("NULL OR FALSE = NULL")
	}
	v = mustEval(t, Bin(OpEq, null, Int(1)))
	if !v.IsNull() {
		t.Fatal("NULL = 1 is NULL")
	}
	v = mustEval(t, Not(null))
	if !v.IsNull() {
		t.Fatal("NOT NULL is NULL")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"HOUSEHOLD", "HOUSE%", true},
		{"HOUSEHOLD", "%HOLD", true},
		{"HOUSEHOLD", "%USE%", true},
		{"HOUSEHOLD", "H_USEHOLD", true},
		{"HOUSEHOLD", "H_SEHOLD", false},
		{"", "%", true},
		{"abc", "abc", true},
		{"abc", "ab", false},
		{"promo burnished", "promo%", true},
		{"MEDIUM POLISHED", "%POLISHED%", true},
		{"a%b", "a%b", true}, // literal % matched by wildcard
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q)=%v want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestLikeExprAndNegate(t *testing.T) {
	e := &Like{E: Col("s"), Pattern: Str("HOUSE%")}
	if !mustEval(t, e).Bool() {
		t.Fatal("LIKE should match")
	}
	ne := &Like{E: Col("s"), Pattern: Str("HOUSE%"), Negate: true}
	if mustEval(t, ne).Bool() {
		t.Fatal("NOT LIKE should not match")
	}
}

func TestInList(t *testing.T) {
	e := &In{E: Col("s"), List: []Expr{Str("AUTO"), Str("HOUSEHOLD")}}
	if !mustEval(t, e).Bool() {
		t.Fatal("IN should match")
	}
	e2 := &In{E: Col("s"), List: []Expr{Str("AUTO")}, Negate: true}
	if !mustEval(t, e2).Bool() {
		t.Fatal("NOT IN should match")
	}
	// NOT IN with a NULL in the list and no match is NULL.
	e3 := &In{E: Col("s"), List: []Expr{Str("AUTO"), Lit(value.Null)}, Negate: true}
	if !mustEval(t, e3).IsNull() {
		t.Fatal("NOT IN over list containing NULL with no match must be NULL")
	}
}

func TestBetween(t *testing.T) {
	e := &Between{E: Col("a"), Lo: Int(5), Hi: Int(10)}
	if !mustEval(t, e).Bool() {
		t.Fatal("10 BETWEEN 5 AND 10")
	}
	e2 := &Between{E: Col("a"), Lo: Int(11), Hi: Int(20)}
	if mustEval(t, e2).Bool() {
		t.Fatal("10 NOT BETWEEN 11 AND 20")
	}
}

func TestIsNull(t *testing.T) {
	if !mustEval(t, &IsNull{E: Lit(value.Null)}).Bool() {
		t.Fatal("NULL IS NULL")
	}
	if !mustEval(t, &IsNull{E: Col("a"), Negate: true}).Bool() {
		t.Fatal("a IS NOT NULL")
	}
}

func TestCase(t *testing.T) {
	c := &CaseWhen{}
	c.Whens = append(c.Whens, struct {
		Cond Expr
		Then Expr
	}{Bin(OpGt, Col("a"), Int(5)), Str("big")})
	c.Else = Str("small")
	if got := mustEval(t, c); got.String() != "big" {
		t.Fatalf("CASE = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	if mustEval(t, Call("UPPER", Str("abc"))).String() != "ABC" {
		t.Error("UPPER")
	}
	if mustEval(t, Call("SUBSTR", Col("s"), Int(1), Int(5))).String() != "HOUSE" {
		t.Error("SUBSTR")
	}
	if mustEval(t, Call("YEAR", Col("d"))).Int() != 1994 {
		t.Error("YEAR")
	}
	if mustEval(t, Call("MONTH", Col("d"))).Int() != 6 {
		t.Error("MONTH")
	}
	if mustEval(t, Call("COALESCE", Lit(value.Null), Int(7))).Int() != 7 {
		t.Error("COALESCE")
	}
	if mustEval(t, Call("MOD", Int(7), Int(3))).Int() != 1 {
		t.Error("MOD")
	}
	if mustEval(t, Call("ABS", Int(-4))).Int() != 4 {
		t.Error("ABS")
	}
	if mustEval(t, Call("ROUND", Lit(value.NewDouble(2.567)), Int(2))).Float() != 2.57 {
		t.Error("ROUND")
	}
	if _, err := Call("NO_SUCH_FN", Int(1)).Eval(testRow()); err == nil {
		t.Error("unknown function must error")
	}
}

func TestAggregateDetection(t *testing.T) {
	sum := Call("SUM", Col("a"))
	if !sum.IsAggregate() {
		t.Fatal("SUM is an aggregate")
	}
	if !HasAggregate(Bin(OpMul, sum, Int(2))) {
		t.Fatal("HasAggregate should find nested aggregate")
	}
	if HasAggregate(Bin(OpAdd, Col("a"), Int(1))) {
		t.Fatal("no aggregate here")
	}
	if _, err := sum.Eval(testRow()); err == nil {
		t.Fatal("evaluating an aggregate directly must error")
	}
}

func TestBindErrors(t *testing.T) {
	e := Bin(OpEq, Col("nope"), Int(1))
	err := Bind(e, testSchema())
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("expected unresolved column error, got %v", err)
	}
}

func TestSplitConjuncts(t *testing.T) {
	p := And(Eq(Col("a"), Int(1)), Eq(Col("b"), Int(2)), Eq(Col("s"), Str("x")))
	cs := SplitConjuncts(p)
	if len(cs) != 3 {
		t.Fatalf("got %d conjuncts", len(cs))
	}
	if SplitConjuncts(nil) != nil {
		t.Fatal("nil predicate has no conjuncts")
	}
	// OR is not split.
	if got := SplitConjuncts(Bin(OpOr, Eq(Col("a"), Int(1)), Eq(Col("a"), Int(2)))); len(got) != 1 {
		t.Fatalf("OR split into %d", len(got))
	}
}

func TestColumnsAndClone(t *testing.T) {
	e := And(Eq(Col("a"), Int(1)), Bin(OpGt, Col("b"), Col("a")))
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns = %v", cols)
	}
	c := Clone(e)
	if err := Bind(c, testSchema()); err != nil {
		t.Fatal(err)
	}
	// The original must remain unbound.
	var unbound bool
	Walk(e, func(n Expr) bool {
		if cr, ok := n.(*ColRef); ok && cr.Ord == -1 {
			unbound = true
		}
		return true
	})
	if !unbound {
		t.Fatal("Clone must not alias column nodes")
	}
}

func TestSubstituteParams(t *testing.T) {
	e := Eq(Col("a"), &Param{Index: 0})
	e2, err := SubstituteParams(e, []value.Value{value.NewInt(10)})
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(e2, testSchema()); err != nil {
		t.Fatal(err)
	}
	v, err := e2.Eval(testRow())
	if err != nil || !v.Bool() {
		t.Fatalf("substituted eval: %v %v", v, err)
	}
	if _, err := SubstituteParams(e, nil); err == nil {
		t.Fatal("missing parameter must error")
	}
}

func TestRenameColumns(t *testing.T) {
	e := Eq(Col("c_custkey"), Col("o_custkey"))
	r := RenameColumns(e, map[string]string{"C_CUSTKEY": "t1.c_custkey"})
	if !strings.Contains(r.SQL(), "t1.c_custkey") {
		t.Fatalf("rename failed: %s", r.SQL())
	}
	if !strings.Contains(e.SQL(), "(c_custkey") {
		t.Fatalf("original mutated: %s", e.SQL())
	}
}

func TestSQLRoundTripRendering(t *testing.T) {
	e := And(
		Eq(Col("c_mktsegment"), Str("HOUSEHOLD")),
		Bin(OpLt, Col("o_orderdate"), Lit(mustDate(t, "1995-03-15"))),
	)
	sql := e.SQL()
	for _, want := range []string{"c_mktsegment", "'HOUSEHOLD'", "DATE '1995-03-15'", "AND"} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL rendering %q missing %q", sql, want)
		}
	}
}

func mustDate(t *testing.T, s string) value.Value {
	t.Helper()
	d, err := value.ParseDate(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTruthy(t *testing.T) {
	ok, err := Truthy(nil, testRow())
	if !ok || err != nil {
		t.Fatal("nil predicate is true")
	}
	e := Eq(Col("a"), Int(10))
	if err := Bind(e, testSchema()); err != nil {
		t.Fatal(err)
	}
	ok, err = Truthy(e, testRow())
	if !ok || err != nil {
		t.Fatal("a = 10 should hold")
	}
	// NULL predicate result is not truthy.
	n := Bin(OpEq, Lit(value.Null), Int(1))
	ok, err = Truthy(n, testRow())
	if ok || err != nil {
		t.Fatal("NULL comparison is not truthy")
	}
}

func TestLikeMatchProperty(t *testing.T) {
	// Every string matches itself and "%".
	f := func(s string) bool {
		if strings.ContainsAny(s, "%_") {
			return true // skip strings containing wildcards
		}
		return likeMatch(s, s) && likeMatch(s, "%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAndFolding(t *testing.T) {
	if And() != nil {
		t.Fatal("empty And is nil")
	}
	single := Eq(Col("a"), Int(1))
	if And(nil, single, nil) != single {
		t.Fatal("And with one non-nil returns it")
	}
	if len(SplitConjuncts(And(single, Eq(Col("b"), Int(2))))) != 2 {
		t.Fatal("And of two splits to two")
	}
}

func TestSplitJoinSortsConjuncts(t *testing.T) {
	l := value.NewSchema(value.Column{Name: "a.x", Kind: value.KindInt}, value.Column{Name: "a.y", Kind: value.KindInt})
	r := value.NewSchema(value.Column{Name: "b.x", Kind: value.KindInt})
	conjs := []Expr{
		Bin(OpEq, Col("a.x"), Col("b.x")),
		Bin(OpEq, Col("b.x"), Col("a.y")),
		Bin(OpEq, Col("a.x"), Lit(value.NewInt(1))),
		Bin(OpLt, Col("a.y"), Col("b.x")),
		Bin(OpEq, Col("c.z"), Col("a.x")),
	}
	lk, rk, residual, rest := SplitJoin(conjs, l, r)
	sqls := func(es []Expr) string {
		parts := make([]string, len(es))
		for i, e := range es {
			parts[i] = e.SQL()
		}
		return strings.Join(parts, "; ")
	}
	for _, c := range []struct{ name, got, want string }{
		{"left keys", sqls(lk), "a.x; a.y"},
		{"right keys", sqls(rk), "b.x; b.x"},
		{"residual", sqls(residual), "(a.x = 1); (a.y < b.x)"},
		{"rest", sqls(rest), "(c.z = a.x)"},
	} {
		if c.got != c.want {
			t.Errorf("%s: %s, want %s", c.name, c.got, c.want)
		}
	}

	pool := append([]Expr{}, conjs...)
	if got := sqls(TakeCovered(l, &pool)); got != "(a.x = 1)" {
		t.Errorf("TakeCovered took %s", got)
	}
	if len(pool) != 4 {
		t.Errorf("TakeCovered left %d conjuncts, want 4", len(pool))
	}
}

func TestCorrelationPair(t *testing.T) {
	outer := value.NewSchema(value.Column{Name: "o.k", Kind: value.KindInt})
	inner := value.NewSchema(value.Column{Name: "i.k", Kind: value.KindInt}, value.Column{Name: "i.v", Kind: value.KindInt})
	if o, i := CorrelationPair(Bin(OpEq, Col("i.k"), Col("o.k")), outer, inner); o == nil || o.SQL() != "o.k" || i.SQL() != "i.k" {
		t.Errorf("i.k = o.k: got %v, %v", o, i)
	}
	for _, c := range []Expr{
		Bin(OpEq, Col("i.k"), Col("i.v")),                         // inner only
		Bin(OpEq, Col("o.k"), Lit(value.NewInt(1))),               // no inner side
		Bin(OpLt, Col("i.k"), Col("o.k")),                         // not an equality
		Bin(OpEq, Col("i.k"), Bin(OpAdd, Col("o.k"), Col("i.v"))), // mixed side
	} {
		if o, _ := CorrelationPair(c, outer, inner); o != nil {
			t.Errorf("%s: correlated on %s", c.SQL(), o.SQL())
		}
	}
}
