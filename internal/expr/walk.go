package expr

import (
	"fmt"
	"strings"

	"hana/internal/value"
)

// Walk calls fn on every node of the tree in pre-order. If fn returns
// false, children of that node are not visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *BinOp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *UnOp:
		Walk(n.E, fn)
	case *IsNull:
		Walk(n.E, fn)
	case *Between:
		Walk(n.E, fn)
		Walk(n.Lo, fn)
		Walk(n.Hi, fn)
	case *In:
		Walk(n.E, fn)
		for _, el := range n.List {
			Walk(el, fn)
		}
	case *Like:
		Walk(n.E, fn)
		Walk(n.Pattern, fn)
	case *Func:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *Cast:
		Walk(n.E, fn)
	case *CaseWhen:
		for _, w := range n.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		Walk(n.Else, fn)
	}
}

// Clone deep-copies an expression tree.
func Clone(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *ColRef:
		c := *n
		return &c
	case *Literal:
		c := *n
		return &c
	case *Param:
		c := *n
		return &c
	case *BinOp:
		return &BinOp{Op: n.Op, L: Clone(n.L), R: Clone(n.R)}
	case *UnOp:
		return &UnOp{Op: n.Op, E: Clone(n.E)}
	case *IsNull:
		return &IsNull{E: Clone(n.E), Negate: n.Negate}
	case *Between:
		return &Between{E: Clone(n.E), Lo: Clone(n.Lo), Hi: Clone(n.Hi), Negate: n.Negate}
	case *In:
		if n.set != nil {
			// A key set, or a list of literals, which nothing mutates:
			// share them and the set built from them.
			return &In{E: Clone(n.E), List: n.List, Negate: n.Negate, set: n.set}
		}
		list := make([]Expr, len(n.List))
		for i, el := range n.List {
			list[i] = Clone(el)
		}
		return &In{E: Clone(n.E), List: list, Negate: n.Negate}
	case *Like:
		return &Like{E: Clone(n.E), Pattern: Clone(n.Pattern), Negate: n.Negate}
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Clone(a)
		}
		return &Func{Name: n.Name, Args: args, Distinct: n.Distinct, Star: n.Star}
	case *Cast:
		return &Cast{E: Clone(n.E), To: n.To}
	case *CaseWhen:
		c := &CaseWhen{Else: Clone(n.Else)}
		c.Whens = make([]struct {
			Cond Expr
			Then Expr
		}, len(n.Whens))
		for i, w := range n.Whens {
			c.Whens[i].Cond = Clone(w.Cond)
			c.Whens[i].Then = Clone(w.Then)
		}
		return c
	}
	// Foreign node types (e.g. the parser's subquery expressions) are
	// treated as opaque leaves and shared rather than copied.
	return e
}

// CloneAll clones each expression of a list.
func CloneAll(es []Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = Clone(e)
	}
	return out
}

// Bind resolves every ColRef in the tree against the schema, returning an
// error listing unresolved columns. Bind mutates the tree; callers that
// reuse plan fragments should Clone first.
func Bind(e Expr, s *value.Schema) error {
	var missing []string
	Walk(e, func(n Expr) bool {
		switch c := n.(type) {
		case *ColRef:
			if ord := s.Find(c.Name); ord >= 0 {
				c.Ord = ord
			} else {
				missing = append(missing, c.Name)
			}
		case *In:
			c.prepare()
		}
		return true
	})
	if len(missing) > 0 {
		return fmt.Errorf("unresolved column(s) %s in schema %s", strings.Join(missing, ", "), s)
	}
	return nil
}

// BindClone binds a clone of e to s, leaving e untouched for reuse.
func BindClone(e Expr, s *value.Schema) (Expr, error) {
	c := Clone(e)
	if err := Bind(c, s); err != nil {
		return nil, err
	}
	return c, nil
}

// Covers reports whether s has every column e references.
func Covers(s *value.Schema, e Expr) bool {
	for _, c := range Columns(e) {
		if s.Find(c) < 0 {
			return false
		}
	}
	return true
}

// TakeCovered removes from pool, and returns, the conjuncts s covers. The
// pool keeps the others in order, in a fresh slice.
func TakeCovered(s *value.Schema, pool *[]Expr) []Expr {
	var taken []Expr
	rest := (*pool)[:0:0]
	for _, c := range *pool {
		if Covers(s, c) {
			taken = append(taken, c)
		} else {
			rest = append(rest, c)
		}
	}
	*pool = rest
	return taken
}

// EquiPair decomposes an equality conjunct into a key over l and a key over
// r — a join key pair. Neither side may be a literal.
func EquiPair(c Expr, l, r *value.Schema) (lk, rk Expr, ok bool) {
	b, isBin := c.(*BinOp)
	if !isBin || b.Op != OpEq {
		return nil, nil, false
	}
	if _, lit := b.L.(*Literal); lit {
		return nil, nil, false
	}
	if _, lit := b.R.(*Literal); lit {
		return nil, nil, false
	}
	if Covers(l, b.L) && Covers(r, b.R) {
		return b.L, b.R, true
	}
	if Covers(l, b.R) && Covers(r, b.L) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

// SplitJoin sorts the conjuncts over a join of l and r: equalities with one
// side over each become key pairs, the others l ‖ r covers are the
// residual, and rest are those that need a relation outside the join.
func SplitJoin(conjs []Expr, l, r *value.Schema) (lk, rk, residual, rest []Expr) {
	both := l.Concat(r)
	for _, c := range conjs {
		if a, b, ok := EquiPair(c, l, r); ok {
			lk, rk = append(lk, a), append(rk, b)
		} else if Covers(both, c) {
			residual = append(residual, c)
		} else {
			rest = append(rest, c)
		}
	}
	return lk, rk, residual, rest
}

// CorrelationPair decomposes an equality between an expression over outer
// columns only (none of them inner) and one over inner columns: the
// correlation of a subquery over inner with its enclosing block's outer.
// It returns nils for any other conjunct.
func CorrelationPair(c Expr, outer, inner *value.Schema) (o, i Expr) {
	b, ok := c.(*BinOp)
	if !ok || b.Op != OpEq {
		return nil, nil
	}
	side := func(e Expr) (isOuter, isInner bool) {
		cols := Columns(e)
		if len(cols) == 0 {
			return false, false
		}
		isOuter, isInner = true, true
		for _, col := range cols {
			if inner.Find(col) >= 0 {
				isOuter = false
			} else {
				isInner = false
			}
			if outer.Find(col) < 0 {
				isOuter = false
			}
		}
		return isOuter, isInner
	}
	lOuter, lInner := side(b.L)
	rOuter, rInner := side(b.R)
	if lOuter && rInner {
		return b.L, b.R
	}
	if rOuter && lInner {
		return b.R, b.L
	}
	return nil, nil
}

// Columns returns the distinct column names referenced by the tree, in
// first-appearance order.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(n Expr) bool {
		if c, ok := n.(*ColRef); ok {
			key := strings.ToUpper(c.Name)
			if !seen[key] {
				seen[key] = true
				out = append(out, c.Name)
			}
		}
		return true
	})
	return out
}

// HasAggregate reports whether the tree contains an aggregate function
// call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*Func); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}

// SplitConjuncts flattens a predicate into its AND-ed conjuncts. A nil
// input yields nil.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// SubstituteParams replaces Param nodes with literal values by index.
func SubstituteParams(e Expr, params []value.Value) (Expr, error) {
	var firstErr error
	out := rewrite(e, func(n Expr) Expr {
		p, ok := n.(*Param)
		if !ok {
			return nil
		}
		if p.Index < 0 || p.Index >= len(params) {
			if firstErr == nil {
				firstErr = fmt.Errorf("parameter ?%d out of range (%d bound)", p.Index, len(params))
			}
			return nil
		}
		return Lit(params[p.Index])
	})
	return out, firstErr
}

// RenameColumns rewrites column references using the mapping (upper-case
// keys); unmapped references are kept. Used when pushing predicates through
// projections and when generating remote SQL with different column names.
func RenameColumns(e Expr, mapping map[string]string) Expr {
	return rewrite(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok {
			return nil
		}
		if to, ok := mapping[strings.ToUpper(c.Name)]; ok {
			return Col(to)
		}
		return nil
	})
}

// Rewrite clones the tree, replacing any node for which repl returns
// non-nil. The replacement subtree is used verbatim (not descended into).
func Rewrite(e Expr, repl func(Expr) Expr) Expr { return rewrite(e, repl) }

// rewrite clones the tree, replacing any node for which repl returns
// non-nil.
func rewrite(e Expr, repl func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := repl(e); r != nil {
		return r
	}
	switch n := e.(type) {
	case *ColRef, *Literal, *Param:
		return Clone(e)
	case *BinOp:
		return &BinOp{Op: n.Op, L: rewrite(n.L, repl), R: rewrite(n.R, repl)}
	case *UnOp:
		return &UnOp{Op: n.Op, E: rewrite(n.E, repl)}
	case *IsNull:
		return &IsNull{E: rewrite(n.E, repl), Negate: n.Negate}
	case *Between:
		return &Between{E: rewrite(n.E, repl), Lo: rewrite(n.Lo, repl), Hi: rewrite(n.Hi, repl), Negate: n.Negate}
	case *In:
		if n.List == nil {
			return &In{E: rewrite(n.E, repl), Negate: n.Negate, set: n.set}
		}
		list := make([]Expr, len(n.List))
		for i, el := range n.List {
			list[i] = rewrite(el, repl)
		}
		return &In{E: rewrite(n.E, repl), List: list, Negate: n.Negate}
	case *Like:
		return &Like{E: rewrite(n.E, repl), Pattern: rewrite(n.Pattern, repl), Negate: n.Negate}
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = rewrite(a, repl)
		}
		return &Func{Name: n.Name, Args: args, Distinct: n.Distinct, Star: n.Star}
	case *Cast:
		return &Cast{E: rewrite(n.E, repl), To: n.To}
	case *CaseWhen:
		c := &CaseWhen{Else: rewrite(n.Else, repl)}
		c.Whens = make([]struct {
			Cond Expr
			Then Expr
		}, len(n.Whens))
		for i, w := range n.Whens {
			c.Whens[i].Cond = rewrite(w.Cond, repl)
			c.Whens[i].Then = rewrite(w.Then, repl)
		}
		return c
	}
	// Foreign node types pass through unchanged, like Clone.
	return e
}

// Truthy evaluates a predicate against a row: NULL and errors count as
// false (SQL WHERE semantics); the error is still returned for diagnosis.
func Truthy(e Expr, row value.Row) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	return v.K == value.KindBool && v.Bool(), nil
}
