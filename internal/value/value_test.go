package value

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestKindFromSQL(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"INTEGER", KindInt, true},
		{"int", KindInt, true},
		{"VARCHAR(30)", KindVarchar, true},
		{"NVARCHAR(12)", KindVarchar, true},
		{"DECIMAL(15,2)", KindDouble, true},
		{"DATE", KindDate, true},
		{"TIMESTAMP", KindTimestamp, true},
		{"BOOLEAN", KindBool, true},
		{"BLOB", KindNull, false},
	}
	for _, c := range cases {
		got, ok := KindFromSQL(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("KindFromSQL(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestCompareNumericPromotion(t *testing.T) {
	if Compare(NewInt(3), NewDouble(3.0)) != 0 {
		t.Error("3 should equal 3.0")
	}
	if Compare(NewInt(3), NewDouble(3.5)) != -1 {
		t.Error("3 < 3.5")
	}
	if Compare(NewDouble(4.5), NewInt(4)) != 1 {
		t.Error("4.5 > 4")
	}
}

func TestCompareNullsFirst(t *testing.T) {
	if Compare(Null, NewInt(-999)) != -1 {
		t.Error("NULL sorts before any value")
	}
	if Compare(NewString(""), Null) != 1 {
		t.Error("any value sorts after NULL")
	}
	if Compare(Null, Null) != 0 {
		t.Error("NULL compares equal to NULL for ordering")
	}
}

func TestDateParsingAndArithmetic(t *testing.T) {
	d, err := ParseDate("1994-01-01")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "1994-01-01" {
		t.Fatalf("round trip = %q", got)
	}
	d2, err := Add(d, NewInt(365))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.String(); got != "1995-01-01" {
		t.Fatalf("1994-01-01 + 365 = %q", got)
	}
	diff, err := Sub(d2, d)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Int() != 365 {
		t.Fatalf("date diff = %d", diff.Int())
	}
}

func TestTimestampParsing(t *testing.T) {
	ts, err := ParseTimestamp("2015-03-23 10:30:00")
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Time().Format("2006-01-02 15:04:05"); got != "2015-03-23 10:30:00" {
		t.Fatalf("timestamp round trip = %q", got)
	}
	if _, err := ParseTimestamp("not a time"); err == nil {
		t.Fatal("expected error for invalid timestamp")
	}
}

func TestCast(t *testing.T) {
	v, err := Cast(NewString("42"), KindInt)
	if err != nil || v.Int() != 42 {
		t.Fatalf("cast '42' to int: %v %v", v, err)
	}
	v, err = Cast(NewInt(7), KindDouble)
	if err != nil || v.Float() != 7.0 {
		t.Fatalf("cast 7 to double: %v %v", v, err)
	}
	v, err = Cast(NewDouble(2.9), KindInt)
	if err != nil || v.Int() != 2 {
		t.Fatalf("cast 2.9 to int truncates: %v %v", v, err)
	}
	if _, err := Cast(NewString("xyz"), KindInt); err == nil {
		t.Fatal("casting 'xyz' to int should fail")
	}
	v, err = Cast(Null, KindVarchar)
	if err != nil || !v.IsNull() {
		t.Fatal("cast NULL stays NULL")
	}
}

func TestArithmetic(t *testing.T) {
	sum, err := Add(NewInt(2), NewInt(3))
	if err != nil || sum.K != KindInt || sum.I != 5 {
		t.Fatalf("2+3 = %v", sum)
	}
	q, err := Div(NewInt(7), NewInt(2))
	if err != nil || q.K != KindDouble || q.F != 3.5 {
		t.Fatalf("7/2 = %v (want DOUBLE 3.5)", q)
	}
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Fatal("division by zero must error")
	}
	n, err := Mul(Null, NewInt(3))
	if err != nil || !n.IsNull() {
		t.Fatal("NULL * 3 is NULL")
	}
	if _, err := Add(NewString("a"), NewInt(1)); err == nil {
		t.Fatal("string + int must error")
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Fatalf("quote escaping: %q", got)
	}
	d, _ := ParseDate("1998-12-01")
	if got := d.SQLLiteral(); got != "DATE '1998-12-01'" {
		t.Fatalf("date literal: %q", got)
	}
	if got := NewInt(-5).SQLLiteral(); got != "-5" {
		t.Fatalf("int literal: %q", got)
	}
}

func TestHashConsistentWithCompare(t *testing.T) {
	// Values that compare equal must hash equal, across kinds.
	pairs := [][2]Value{
		{NewInt(10), NewDouble(10)},
		{NewString("x"), NewString("x")},
		{NewBool(true), NewBool(true)},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v %v", p[0], p[1])
		}
	}
}

// Compare equates −0.0 with 0.0 and with integer 0, so hash joins, GROUP BY,
// DISTINCT and shard placement must put them in one bucket.
func TestHashAgreesWithCompareOnSignedZero(t *testing.T) {
	negZero := NewDouble(math.Copysign(0, -1))
	for _, p := range [][2]Value{
		{NewDouble(0), negZero},
		{NewInt(0), negZero},
		{NewInt(0), NewDouble(0)},
		{NewInt(3), NewDouble(3.0)},
	} {
		if Compare(p[0], p[1]) != 0 {
			t.Fatalf("Compare(%v, %v) = %d, want 0", p[0], p[1], Compare(p[0], p[1]))
		}
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("%v (%v) and %v (%v) compare equal but hash differently", p[0], p[0].K, p[1], p[1].K)
		}
	}
}

// A NaN equals any NaN, whatever its payload, and sorts above every number
// (+Inf and the largest BIGINT included), so every NaN hashes alike.
func TestNaNEqualsNaNAboveEveryNumber(t *testing.T) {
	nan, other := NewDouble(math.NaN()), NewDouble(math.Float64frombits(0xfff8000000000abc))
	if Compare(nan, other) != 0 || nan.Hash() != other.Hash() {
		t.Errorf("two NaN payloads: Compare %d, hashes %x %x", Compare(nan, other), nan.Hash(), other.Hash())
	}
	for _, v := range []Value{NewDouble(math.Inf(1)), NewDouble(math.Inf(-1)), NewDouble(0), NewInt(math.MaxInt64), NewInt(math.MinInt64)} {
		if Compare(nan, v) != 1 || Compare(v, nan) != -1 {
			t.Errorf("Compare(NaN, %v) = %d, Compare(%v, NaN) = %d; want NaN above", v, Compare(nan, v), v, Compare(v, nan))
		}
	}
	if Compare(Null, nan) != -1 {
		t.Errorf("NULL must still sort before NaN")
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Antisymmetry: Compare(a,b) == -Compare(b,a) for arbitrary ints/doubles.
	f := func(a, b int64, x, y float64) bool {
		vals := []Value{NewInt(a), NewInt(b), NewDouble(x), NewDouble(y), Null}
		for _, u := range vals {
			for _, v := range vals {
				if Compare(u, v) != -Compare(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashEqualityProperty(t *testing.T) {
	f := func(i int64) bool {
		return NewInt(i).Hash() == NewDouble(float64(i)).Hash() ==
			(Compare(NewInt(i), NewDouble(float64(i))) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCastRoundTripProperty(t *testing.T) {
	f := func(i int64) bool {
		s, err := Cast(NewInt(i), KindVarchar)
		if err != nil {
			return false
		}
		back, err := Cast(s, KindInt)
		return err == nil && back.I == i
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaFind(t *testing.T) {
	s := NewSchema(
		Column{Name: "l.l_orderkey", Kind: KindInt},
		Column{Name: "l_quantity", Kind: KindDouble},
	)
	if s.Find("L_QUANTITY") != 1 {
		t.Error("case-insensitive lookup failed")
	}
	if s.Find("l_orderkey") != 0 {
		t.Error("suffix match for qualified stored name failed")
	}
	if s.Find("x.l_quantity") != 1 {
		t.Error("suffix match for qualified lookup failed")
	}
	if s.Find("missing") != -1 {
		t.Error("missing column should return -1")
	}
}

func TestSchemaQualifyConcat(t *testing.T) {
	a := NewSchema(Column{Name: "id", Kind: KindInt}).Qualify("t")
	if a.Cols[0].Name != "t.id" {
		t.Fatalf("qualify: %q", a.Cols[0].Name)
	}
	b := NewSchema(Column{Name: "v", Kind: KindVarchar})
	c := a.Concat(b)
	if c.Len() != 2 || c.Cols[1].Name != "v" {
		t.Fatalf("concat: %v", c)
	}
	// Concat must not alias the inputs.
	c.Cols[0].Name = "mutated"
	if a.Cols[0].Name != "t.id" {
		t.Fatal("concat aliases its input")
	}
}

func TestRowHashGrouping(t *testing.T) {
	k1 := Row{NewInt(1), NewDouble(2)}
	k2 := Row{NewDouble(1), NewInt(2)}
	if KeyHash(k1) != KeyHash(k2) {
		t.Error("keys equal under Compare must hash equal")
	}
	if !KeysEqual(k1, k2) {
		t.Error("KeysEqual on matching keys")
	}
	if KeysEqual(Row{NewString("a")}, Row{NewString("b")}) {
		t.Error("KeysEqual must detect mismatch")
	}
}

func TestRowEqualAtNulls(t *testing.T) {
	if !KeysEqual(Row{Null}, Row{Null}) {
		t.Error("grouping treats NULL keys as equal")
	}
}

func TestValueStringFormats(t *testing.T) {
	if NewDouble(math.Inf(1)).String() != "+Inf" {
		t.Skip("formatting of Inf not asserted strictly")
	}
}

func TestRowBytes(t *testing.T) {
	r := Row{NewInt(1), NewString("abcd")}
	if got := RowBytes(r); got != 8+4+2 {
		t.Fatalf("RowBytes = %d", got)
	}
	rs := NewRows(NewSchema(Column{Name: "a", Kind: KindInt}))
	rs.Append(Row{NewInt(1)})
	rs.Append(Row{NewInt(2)})
	if rs.EstimateBytes() != 16 {
		t.Fatalf("EstimateBytes = %d", rs.EstimateBytes())
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "BIGINT",
		KindDouble: "DOUBLE", KindVarchar: "VARCHAR", KindDate: "DATE",
		KindTimestamp: "TIMESTAMP",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}

func TestValueStringAllKinds(t *testing.T) {
	d, _ := ParseDate("2015-03-23")
	ts, _ := ParseTimestamp("2015-03-23 10:30:00.5")
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewInt(-7), "-7"},
		{NewDouble(2.5), "2.5"},
		{NewString("hi"), "hi"},
		{d, "2015-03-23"},
		{ts, "2015-03-23 10:30:00.500000"},
	}
	for _, c := range cases {
		if c.v.String() != c.want {
			t.Errorf("String() = %q want %q", c.v.String(), c.want)
		}
	}
}

func TestCastTemporalConversions(t *testing.T) {
	d, _ := ParseDate("2015-03-23")
	ts, err := Cast(d, KindTimestamp)
	if err != nil || ts.K != KindTimestamp {
		t.Fatalf("date→timestamp: %v %v", ts, err)
	}
	back, err := Cast(ts, KindDate)
	if err != nil || Compare(back, d) != 0 {
		t.Fatalf("timestamp→date: %v %v", back, err)
	}
	// varchar → timestamp
	v, err := Cast(NewString("2015-03-23 10:00:00"), KindTimestamp)
	if err != nil || v.K != KindTimestamp {
		t.Fatalf("varchar→timestamp: %v %v", v, err)
	}
	// bool ↔ int
	b, err := Cast(NewInt(1), KindBool)
	if err != nil || !b.Bool() {
		t.Fatal("int→bool")
	}
	i, err := Cast(NewBool(true), KindInt)
	if err != nil || i.Int() != 1 {
		t.Fatal("bool→int")
	}
	// impossible casts
	if _, err := Cast(NewBool(true), KindDate); err == nil {
		t.Fatal("bool→date must fail")
	}
	if _, err := Cast(NewString("not a date"), KindDate); err == nil {
		t.Fatal("bad date cast must fail")
	}
}

func TestDateMinusDateAndErrors(t *testing.T) {
	a, _ := ParseDate("2015-01-10")
	b, _ := ParseDate("2015-01-01")
	diff, err := Sub(a, b)
	if err != nil || diff.Int() != 9 {
		t.Fatalf("date diff: %v %v", diff, err)
	}
	if _, err := Mul(a, b); err == nil {
		t.Fatal("date * date must fail")
	}
	sum, err := Sub(a, NewInt(5))
	if err != nil || sum.String() != "2015-01-05" {
		t.Fatalf("date - int: %v", sum)
	}
}

func TestCompareTemporalCrossKind(t *testing.T) {
	d, _ := ParseDate("2015-01-01")
	ts := NewTimestamp(d.I) // same integer encoding, different kinds
	if Compare(d, ts) != 0 {
		t.Skip("cross-kind temporal comparison is by encoding; informational")
	}
}

func TestMustFindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFind must panic on missing column")
		}
	}()
	NewSchema().MustFind("nope")
}

func TestSchemaStringAndClone(t *testing.T) {
	s := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindVarchar})
	if s.String() != "(a BIGINT, b VARCHAR)" {
		t.Fatalf("schema string = %q", s.String())
	}
	c := s.Clone()
	c.Cols[0].Name = "z"
	if s.Cols[0].Name != "a" {
		t.Fatal("clone aliases input")
	}
	if len(s.Names()) != 2 {
		t.Fatal("names")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), Null, NewString("x")}
	if r.String() != "[1, NULL, x]" {
		t.Fatalf("row string = %q", r.String())
	}
}

func TestTimeConversionHelpers(t *testing.T) {
	now := time.Date(2015, 3, 23, 12, 0, 0, 0, time.UTC)
	d := DateFromTime(now)
	if d.Time().Format("2006-01-02") != "2015-03-23" {
		t.Fatal("DateFromTime")
	}
	ts := TimestampFromTime(now)
	if !ts.Time().Equal(now) {
		t.Fatal("TimestampFromTime")
	}
	if !NewString("x").Time().IsZero() {
		t.Fatal("Time on non-temporal is zero")
	}
}
