// Package expr defines the scalar expression trees shared by the SQL
// parser, the query planner/executor, the continuous-query engine (ESP) and
// the HiveQL compiler. Expressions evaluate against a value.Row bound to a
// value.Schema, and can be rendered back to SQL text for query shipping to
// remote sources (the SDA federation layer regenerates remote statements
// from plan fragments).
package expr

import (
	"fmt"
	"strings"

	"hana/internal/value"
)

// Op enumerates binary and unary operators.
type Op int

// Operators. Comparison operators use SQL three-valued logic: any NULL
// operand yields NULL, which predicates treat as "not satisfied".
const (
	OpInvalid Op = iota
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
	OpConcat
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT", OpNeg: "-", OpConcat: "||",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// Comparison reports whether the operator is a comparison.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// Expr is a scalar expression node.
type Expr interface {
	// Eval evaluates the expression against a row. Bind must have been
	// called on the tree with the row's schema first.
	Eval(row value.Row) (value.Value, error)
	// SQL renders the node back to parseable SQL text.
	SQL() string
}

// ColRef references a column by (possibly qualified) name. Ord is resolved
// by Bind; an unbound ColRef evaluates to an error.
type ColRef struct {
	Name string
	Ord  int
}

// Col builds an unbound column reference.
func Col(name string) *ColRef { return &ColRef{Name: name, Ord: -1} }

// Eval returns the referenced column value.
func (c *ColRef) Eval(row value.Row) (value.Value, error) {
	if c.Ord < 0 || c.Ord >= len(row) {
		return value.Null, fmt.Errorf("unbound column reference %q", c.Name)
	}
	return row[c.Ord], nil
}

// SQL renders the column name.
func (c *ColRef) SQL() string { return c.Name }

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// Lit builds a literal node.
func Lit(v value.Value) *Literal { return &Literal{Val: v} }

// Int is shorthand for an integer literal.
func Int(i int64) *Literal { return Lit(value.NewInt(i)) }

// Str is shorthand for a string literal.
func Str(s string) *Literal { return Lit(value.NewString(s)) }

// Eval returns the constant.
func (l *Literal) Eval(value.Row) (value.Value, error) { return l.Val, nil }

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Val.SQLLiteral() }

// Param is a positional query parameter ("?"), substituted before
// execution; evaluating an unsubstituted parameter is an error.
type Param struct {
	Index int
}

// Eval fails: parameters must be substituted before evaluation.
func (p *Param) Eval(value.Row) (value.Value, error) {
	return value.Null, fmt.Errorf("unsubstituted parameter ?%d", p.Index)
}

// SQL renders the placeholder.
func (p *Param) SQL() string { return "?" }

// BinOp is a binary operation.
type BinOp struct {
	Op   Op
	L, R Expr
}

// Bin builds a binary node.
func Bin(op Op, l, r Expr) *BinOp { return &BinOp{Op: op, L: l, R: r} }

// Eq builds l = r.
func Eq(l, r Expr) *BinOp { return Bin(OpEq, l, r) }

// And folds a conjunction; nil inputs are dropped, and an empty input
// yields nil (meaning "always true" to the planner).
func And(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = Bin(OpAnd, out, e)
		}
	}
	return out
}

// Eval applies the operator with SQL NULL semantics. AND/OR use
// three-valued logic (NULL AND FALSE = FALSE, NULL OR TRUE = TRUE).
func (b *BinOp) Eval(row value.Row) (value.Value, error) {
	switch b.Op {
	case OpAnd, OpOr:
		l, err := b.L.Eval(row)
		if err != nil {
			return value.Null, err
		}
		// Short circuit.
		if b.Op == OpAnd && l.K == value.KindBool && !l.Bool() {
			return value.NewBool(false), nil
		}
		if b.Op == OpOr && l.K == value.KindBool && l.Bool() {
			return value.NewBool(true), nil
		}
		r, err := b.R.Eval(row)
		if err != nil {
			return value.Null, err
		}
		if b.Op == OpAnd {
			if r.K == value.KindBool && !r.Bool() {
				return value.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return value.Null, nil
			}
			return value.NewBool(l.Bool() && r.Bool()), nil
		}
		if r.K == value.KindBool && r.Bool() {
			return value.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		return value.NewBool(l.Bool() || r.Bool()), nil
	}
	l, err := b.L.Eval(row)
	if err != nil {
		return value.Null, err
	}
	r, err := b.R.Eval(row)
	if err != nil {
		return value.Null, err
	}
	switch b.Op {
	case OpAdd:
		return value.Add(l, r)
	case OpSub:
		return value.Sub(l, r)
	case OpMul:
		return value.Mul(l, r)
	case OpDiv:
		return value.Div(l, r)
	case OpConcat:
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		return value.NewString(l.String() + r.String()), nil
	}
	if b.Op.Comparison() {
		if l.IsNull() || r.IsNull() {
			return value.Null, nil
		}
		c := value.Compare(l, r)
		switch b.Op {
		case OpEq:
			return value.NewBool(c == 0), nil
		case OpNe:
			return value.NewBool(c != 0), nil
		case OpLt:
			return value.NewBool(c < 0), nil
		case OpLe:
			return value.NewBool(c <= 0), nil
		case OpGt:
			return value.NewBool(c > 0), nil
		case OpGe:
			return value.NewBool(c >= 0), nil
		}
	}
	return value.Null, fmt.Errorf("unknown binary operator %v", b.Op)
}

// SQL renders the operation with full parenthesization.
func (b *BinOp) SQL() string {
	return "(" + b.L.SQL() + " " + b.Op.String() + " " + b.R.SQL() + ")"
}

// UnOp is a unary operation (NOT, numeric negation).
type UnOp struct {
	Op Op
	E  Expr
}

// Not negates a predicate.
func Not(e Expr) *UnOp { return &UnOp{Op: OpNot, E: e} }

// Eval applies the unary operator.
func (u *UnOp) Eval(row value.Row) (value.Value, error) {
	v, err := u.E.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() {
		return value.Null, nil
	}
	switch u.Op {
	case OpNot:
		return value.NewBool(!v.Bool()), nil
	case OpNeg:
		switch v.K {
		case value.KindInt:
			return value.NewInt(-v.I), nil
		case value.KindDouble:
			return value.NewDouble(-v.F), nil
		}
		return value.Null, fmt.Errorf("cannot negate %s", v.K)
	}
	return value.Null, fmt.Errorf("unknown unary operator %v", u.Op)
}

// SQL renders the operation.
func (u *UnOp) SQL() string {
	if u.Op == OpNot {
		return "(NOT " + u.E.SQL() + ")"
	}
	return "(-" + u.E.SQL() + ")"
}

// IsNull tests for (non-)NULL.
type IsNull struct {
	E      Expr
	Negate bool // IS NOT NULL
}

// Eval tests NULL-ness.
func (n *IsNull) Eval(row value.Row) (value.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool(v.IsNull() != n.Negate), nil
}

// SQL renders the test.
func (n *IsNull) SQL() string {
	if n.Negate {
		return "(" + n.E.SQL() + " IS NOT NULL)"
	}
	return "(" + n.E.SQL() + " IS NULL)"
}

// Between is e BETWEEN lo AND hi (inclusive both ends).
type Between struct {
	E, Lo, Hi Expr
	Negate    bool
}

// Eval applies the range test.
func (b *Between) Eval(row value.Row) (value.Value, error) {
	v, err := b.E.Eval(row)
	if err != nil {
		return value.Null, err
	}
	lo, err := b.Lo.Eval(row)
	if err != nil {
		return value.Null, err
	}
	hi, err := b.Hi.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return value.Null, nil
	}
	in := value.Compare(v, lo) >= 0 && value.Compare(v, hi) <= 0
	return value.NewBool(in != b.Negate), nil
}

// SQL renders the range test.
func (b *Between) SQL() string {
	not := ""
	if b.Negate {
		not = "NOT "
	}
	return "(" + b.E.SQL() + " " + not + "BETWEEN " + b.Lo.SQL() + " AND " + b.Hi.SQL() + ")"
}

// In is e IN (list). A list the parser reads keeps its elements in List;
// Bind prepares the key set of an all-literal one. A subquery's or a
// semijoin's key set has no List: NewIn takes the set built from its key
// column, and SQL renders the keys from it.
type In struct {
	E      Expr
	List   []Expr
	Negate bool

	// set holds the members Eval and the batch kernel probe instead of
	// re-evaluating the list per row. Built before execution (never lazily)
	// so the bound tree stays immutable under parallel morsel execution.
	set *value.KeySet
}

// NewIn builds e [NOT] IN (keys of set). Clone shares the set, so binding
// the node for every leaf that takes it does not rebuild it.
func NewIn(e Expr, set *value.KeySet, negate bool) *In {
	return &In{E: e, Negate: negate, set: set}
}

// Set returns the node's key set: nil when its list is not all literals,
// or before Bind prepared it.
func (i *In) Set() *value.KeySet { return i.set }

// Len returns the number of list elements: a key set's keys, NULL counted
// once.
func (i *In) Len() int {
	if i.List != nil || i.set == nil {
		return len(i.List)
	}
	if i.set.HasNull {
		return i.set.Len() + 1
	}
	return i.set.Len()
}

// prepare builds the key set when every list element is a literal. Lists
// with a non-literal element keep the per-row Compare path.
func (i *In) prepare() {
	if i.set != nil {
		return
	}
	set := value.NewKeySet(len(i.List))
	for _, el := range i.List {
		lit, ok := el.(*Literal)
		if !ok {
			return
		}
		set.Add(lit.Val)
	}
	i.set = set
}

// Eval applies the membership test.
func (i *In) Eval(row value.Row) (value.Value, error) {
	v, err := i.E.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if i.set != nil {
		switch inVerdict(i, v) {
		case triTrue:
			return value.NewBool(true), nil
		case triFalse:
			return value.NewBool(false), nil
		}
		return value.Null, nil
	}
	if v.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, el := range i.List {
		ev, err := el.Eval(row)
		if err != nil {
			return value.Null, err
		}
		if ev.IsNull() {
			sawNull = true
			continue
		}
		if value.Compare(v, ev) == 0 {
			return value.NewBool(!i.Negate), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.NewBool(i.Negate), nil
}

// SQL renders the membership test: a key set's keys in first-seen order,
// NULL last.
func (i *In) SQL() string {
	var parts []string
	if i.List != nil || i.set == nil {
		parts = make([]string, len(i.List))
		for j, el := range i.List {
			parts[j] = el.SQL()
		}
	} else {
		parts = make([]string, i.set.Len(), i.Len())
		for o := range parts {
			parts[o] = i.set.Keys.Value(o).SQLLiteral()
		}
		if i.set.HasNull {
			parts = append(parts, value.Null.SQLLiteral())
		}
	}
	not := ""
	if i.Negate {
		not = "NOT "
	}
	return "(" + i.E.SQL() + " " + not + "IN (" + strings.Join(parts, ", ") + "))"
}

// Like is e LIKE pattern with % and _ wildcards.
type Like struct {
	E       Expr
	Pattern Expr
	Negate  bool
}

// Eval applies the pattern match.
func (l *Like) Eval(row value.Row) (value.Value, error) {
	v, err := l.E.Eval(row)
	if err != nil {
		return value.Null, err
	}
	p, err := l.Pattern.Eval(row)
	if err != nil {
		return value.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return value.Null, nil
	}
	m := likeMatch(v.String(), p.String())
	return value.NewBool(m != l.Negate), nil
}

// SQL renders the pattern match.
func (l *Like) SQL() string {
	not := ""
	if l.Negate {
		not = "NOT "
	}
	return "(" + l.E.SQL() + " " + not + "LIKE " + l.Pattern.SQL() + ")"
}

// likeMatch implements SQL LIKE with %, _ via iterative backtracking.
func likeMatch(s, pat string) bool {
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		if pi < len(pat) && (pat[pi] == '_' || pat[pi] == s[si]) {
			si++
			pi++
		} else if pi < len(pat) && pat[pi] == '%' {
			star = pi
			mark = si
			pi++
		} else if star >= 0 {
			pi = star + 1
			mark++
			si = mark
		} else {
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '%' {
		pi++
	}
	return pi == len(pat)
}

// CaseWhen is a searched CASE expression.
type CaseWhen struct {
	Whens []struct {
		Cond Expr
		Then Expr
	}
	Else Expr // nil means ELSE NULL
}

// Eval returns the first branch whose condition is true.
func (c *CaseWhen) Eval(row value.Row) (value.Value, error) {
	for _, w := range c.Whens {
		cond, err := w.Cond.Eval(row)
		if err != nil {
			return value.Null, err
		}
		if cond.K == value.KindBool && cond.Bool() {
			return w.Then.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return value.Null, nil
}

// SQL renders the CASE expression.
func (c *CaseWhen) SQL() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		b.WriteString(" WHEN ")
		b.WriteString(w.Cond.SQL())
		b.WriteString(" THEN ")
		b.WriteString(w.Then.SQL())
	}
	if c.Else != nil {
		b.WriteString(" ELSE ")
		b.WriteString(c.Else.SQL())
	}
	b.WriteString(" END")
	return b.String()
}
