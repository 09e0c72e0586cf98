package expr

import (
	"math"
	"testing"

	"hana/internal/value"
)

// Per-row expression evaluation must not allocate: Eval runs once per row
// per node on every scan, filter, and join.

func TestEvalZeroAllocs(t *testing.T) {
	s := value.NewSchema(
		value.Column{Name: "K", Kind: value.KindVarchar},
		value.Column{Name: "N", Kind: value.KindInt},
	)
	row := value.Row{value.NewString("EUROPE"), value.NewInt(9)}

	cases := []struct {
		name string
		e    Expr
	}{
		{"colref", Col("N")},
		{"binop", Bin(OpAdd, Col("N"), Int(1))},
		{"compare", Bin(OpLt, Col("N"), Int(100))},
		{"between", &Between{E: Col("N"), Lo: Int(0), Hi: Int(10)}},
		{"in-literal-set", &In{E: Col("K"), List: []Expr{Str("ASIA"), Str("EUROPE"), Str("AFRICA")}}},
		{"in-int-set", &In{E: Col("N"), List: []Expr{Int(3), Lit(value.NewDouble(9)), Lit(value.Null)}, Negate: true}},
	}
	for _, tc := range cases {
		if err := Bind(tc.e, s); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := tc.e.Eval(row); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Eval allocates %.1f times per row, want 0", tc.name, n)
		}
	}
}

// TestInLiteralSetMatchesLinearScan pins the set Bind prepares against the
// linear Compare scan it replaces — an unbound In over the same list — for
// every kind the set buckets, tri-valued verdicts included, through Eval and
// through the batch kernel (dictionary-coded for VARCHAR); NewIn over a key
// set of the same values, cloned as the planner clones it, must agree too.
func TestInLiteralSetMatchesLinearScan(t *testing.T) {
	date := func(s string) value.Value {
		v, err := value.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	negZero, nan := value.NewDouble(math.Copysign(0, -1)), value.NewDouble(math.NaN())
	cases := []struct {
		name   string
		kind   value.Kind
		list   []value.Value
		probes []value.Value
	}{
		{"ints", value.KindInt,
			[]value.Value{value.NewInt(1), value.NewInt(7), value.NewInt(7), value.NewInt(1 << 60)},
			[]value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(7), value.NewInt(1<<60 + 1), value.NewInt(0)}},
		{"ints-vs-doubles", value.KindInt,
			[]value.Value{value.NewDouble(1), value.NewDouble(2.5), negZero},
			[]value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(0)}},
		{"doubles", value.KindDouble,
			[]value.Value{value.NewInt(3), value.NewDouble(0.5), value.NewDouble(0)},
			[]value.Value{value.NewDouble(3), value.NewDouble(0.5), negZero, value.NewDouble(4), nan}},
		{"dates", value.KindDate,
			[]value.Value{date("1994-01-01"), date("1995-06-17"), value.NewTimestamp(0)},
			[]value.Value{date("1994-01-01"), date("1994-01-02"), date("1995-06-17")}},
		{"varchar", value.KindVarchar,
			[]value.Value{value.NewString("MAIL"), value.NewString("SHIP"), value.NewInt(4)},
			[]value.Value{value.NewString("MAIL"), value.NewString("AIR"), value.NewString("SHIP"), value.NewString("")}},
	}
	verdict := func(in *In, v value.Value) string {
		got, err := in.Eval(value.Row{v})
		if err != nil {
			t.Fatal(err)
		}
		return got.String()
	}
	for _, tc := range cases {
		for _, withNull := range []bool{false, true} {
			for _, negate := range []bool{false, true} {
				vals := tc.list
				if withNull {
					vals = append(vals[:len(vals):len(vals)], value.Null)
				}
				var list []Expr
				for _, v := range vals {
					list = append(list, Lit(v))
				}
				s := value.NewSchema(value.Column{Name: "K", Kind: tc.kind, Nullable: true})
				linear := &In{E: &ColRef{Name: "K", Ord: 0}, List: list, Negate: negate}
				set := &In{E: Col("K"), List: list, Negate: negate}
				if err := Bind(set, s); err != nil {
					t.Fatal(err)
				}
				if set.set == nil || linear.set != nil {
					t.Fatalf("%s: Bind must prepare the set (and only Bind)", tc.name)
				}
				keys := value.NewKeySet(0)
				for _, v := range vals {
					keys.Add(v)
				}
				built := NewIn(Col("K"), keys, negate)
				shared := Clone(built).(*In)
				if err := Bind(shared, s); err != nil {
					t.Fatal(err)
				}
				if shared.set != built.set || built.Len() > len(list) {
					t.Fatalf("%s: the key set must dedupe, and Clone and Bind must keep it", tc.name)
				}
				probes := append([]value.Value{value.Null}, tc.probes...)
				var want []int32
				for i, v := range probes {
					w := verdict(linear, v)
					if got, got2 := verdict(set, v), verdict(shared, v); got != w || got2 != w {
						t.Errorf("%s null=%v negate=%v: %v → set %s, NewIn %s, linear %s", tc.name, withNull, negate, v, got, got2, w)
					}
					if w == "TRUE" {
						want = append(want, int32(i))
					}
				}
				b := batchOf(s, tc.kind, probes)
				if err := SelectBatch(set, b); err != nil {
					t.Fatal(err)
				}
				if len(b.Sel) != len(want) {
					t.Errorf("%s null=%v negate=%v: kernel kept %v, linear keeps %v", tc.name, withNull, negate, b.Sel, want)
					continue
				}
				for i := range want {
					if b.Sel[i] != want[i] {
						t.Errorf("%s null=%v negate=%v: kernel kept %v, linear keeps %v", tc.name, withNull, negate, b.Sel, want)
						break
					}
				}
			}
		}
	}
}

// batchOf builds a one-column typed batch; VARCHAR is dictionary-coded.
func batchOf(s *value.Schema, kind value.Kind, vals []value.Value) *value.Batch {
	vec := value.Vec{Kind: kind}
	vec.EnsureNulls(len(vals))
	codes := map[string]uint32{}
	for i, v := range vals {
		if v.IsNull() {
			vec.SetNull(i)
		}
		switch kind {
		case value.KindDouble:
			vec.Floats = append(vec.Floats, v.F)
		case value.KindVarchar:
			c, ok := codes[v.S]
			if !ok {
				c = uint32(len(vec.Dict))
				codes[v.S] = c
				vec.Dict = append(vec.Dict, v.S)
			}
			vec.Codes = append(vec.Codes, c)
		default:
			vec.Ints = append(vec.Ints, v.I)
		}
	}
	return &value.Batch{Schema: s, Cols: []value.Vec{vec}, N: len(vals)}
}
