package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"hana/internal/expr"
	"hana/internal/value"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.matchPunct(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return st, nil
}

// ParseAll parses a script of semicolon-separated statements.
func ParseAll(src string) ([]Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for !p.atEOF() {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.matchPunct(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %q", p.peek().text)
		}
		for p.matchPunct(";") {
		}
	}
	return out, nil
}

// ParseExpr parses a single scalar expression; the ESP CCL filter compiler
// uses it.
func ParseExpr(src string) (expr.Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return e, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{src: src, toks: toks}, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	off := p.peek().pos
	line := 1 + strings.Count(p.src[:min(off, len(p.src))], "\n")
	return fmt.Errorf("parse error at line %d (offset %d): %s", line, off, fmt.Sprintf(format, args...))
}

// isKw reports whether the current token is the given bare keyword.
func (p *parser) isKw(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) matchKw(kw string) bool {
	if p.isKw(kw) {
		p.pos++
		return true
	}
	return false
}

// matchKws matches a fixed sequence of keywords atomically.
func (p *parser) matchKws(kws ...string) bool {
	for i, kw := range kws {
		t := p.peekAt(i)
		if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
			return false
		}
	}
	p.pos += len(kws)
	return true
}

func (p *parser) expectKw(kw string) error {
	if !p.matchKw(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) matchPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.matchPunct(s) {
		return p.errorf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// ident consumes an (optionally quoted) identifier.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQuotedIdent {
		p.pos++
		return t.text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

// reserved keywords that terminate alias positions.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "HAVING": true,
	"ORDER": true, "LIMIT": true, "TOP": true, "JOIN": true, "INNER": true,
	"LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true, "OUTER": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "AS": true, "UNION": true,
	"WITH": true, "INTO": true, "VALUES": true, "SET": true, "KEEP": true,
	"EVERY": true, "USING": true, "AT": true, "BY": true, "ASC": true, "DESC": true,
	"IN": true, "IS": true, "LIKE": true, "BETWEEN": true, "EXISTS": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"PARTITION": true, "HINT": true,
}

// aliasIdent consumes an identifier usable as an alias (not reserved).
func (p *parser) aliasIdent() (string, bool) {
	t := p.peek()
	if t.kind == tokQuotedIdent {
		p.pos++
		return t.text, true
	}
	if t.kind == tokIdent && !reserved[strings.ToUpper(t.text)] {
		p.pos++
		return t.text, true
	}
	return "", false
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("EXPLAIN"):
		p.pos++
		trace := p.matchKw("TRACE")
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Sel: sel, Trace: trace}, nil
	case p.isKw("CREATE"):
		return p.parseCreate()
	case p.isKw("ALTER"):
		return p.parseAlter()
	case p.isKw("DROP"):
		return p.parseDrop()
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	}
	return nil, p.errorf("unsupported statement starting with %q", p.peek().text)
}

// --- SELECT ---

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.matchKw("DISTINCT") {
		s.Distinct = true
	}
	if p.matchKw("TOP") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.matchPunct(",") {
			break
		}
	}
	if p.matchKw("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		s.From = from
	}
	if p.matchKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.matchKws("GROUP", "BY") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.matchPunct(",") {
				break
			}
		}
	}
	if p.matchKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.matchKws("ORDER", "BY") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.matchKw("DESC") {
				it.Desc = true
			} else {
				p.matchKw("ASC")
			}
			s.OrderBy = append(s.OrderBy, it)
			if !p.matchPunct(",") {
				break
			}
		}
	}
	if p.matchKw("LIMIT") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.matchKw("KEEP") {
		k, err := p.parseKeep()
		if err != nil {
			return nil, err
		}
		s.Keep = k
	}
	if p.isKw("WITH") && strings.EqualFold(p.peekAt(1).text, "HINT") {
		p.pos += 2
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			h, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Hints = append(s.Hints, h)
			if !p.matchPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) parseKeep() (*KeepClause, error) {
	n, err := p.intLiteral()
	if err != nil {
		return nil, err
	}
	k := &KeepClause{N: n}
	switch {
	case p.matchKw("ROWS") || p.matchKw("ROW"):
		k.Unit = KeepRows
	case p.matchKw("SECONDS") || p.matchKw("SECOND") || p.matchKw("SEC"):
		k.Unit = KeepSeconds
	case p.matchKw("MINUTES") || p.matchKw("MINUTE") || p.matchKw("MIN"):
		k.Unit = KeepMinutes
	case p.matchKw("HOURS") || p.matchKw("HOUR"):
		k.Unit = KeepHours
	default:
		return nil, p.errorf("expected KEEP unit (ROWS/SECONDS/MINUTES/HOURS), got %q", p.peek().text)
	}
	return k, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.matchPunct("*") {
		return SelectItem{Star: true}, nil
	}
	// qualified star: t.*
	if p.peek().kind == tokIdent && p.peekAt(1).text == "." && p.peekAt(2).text == "*" {
		qual := p.next().text
		p.pos += 2
		return SelectItem{Star: true, Qual: qual}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.matchKw("AS") {
		a, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if a, ok := p.aliasIdent(); ok {
		item.Alias = a
	}
	return item, nil
}

// --- FROM / joins ---

func (p *parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseJoinChain()
	if err != nil {
		return nil, err
	}
	// Comma joins (implicit cross joins restricted by WHERE).
	for p.matchPunct(",") {
		right, err := p.parseJoinChain()
		if err != nil {
			return nil, err
		}
		left = &JoinExpr{Type: JoinCross, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseJoinChain() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.matchKws("INNER", "JOIN") || p.matchKw("JOIN"):
			jt = JoinInner
		case p.matchKws("LEFT", "OUTER", "JOIN") || p.matchKws("LEFT", "JOIN"):
			jt = JoinLeft
		case p.matchKws("RIGHT", "OUTER", "JOIN") || p.matchKws("RIGHT", "JOIN"):
			jt = JoinRight
		case p.matchKws("FULL", "OUTER", "JOIN") || p.matchKws("FULL", "JOIN"):
			jt = JoinFull
		case p.matchKws("CROSS", "JOIN"):
			jt = JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &JoinExpr{Type: jt, L: left, R: right}
		if jt != JoinCross {
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = on
		}
		left = j
	}
}

func (p *parser) parseTablePrimary() (TableExpr, error) {
	if p.matchPunct("(") {
		if p.isKw("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			st := &SubqueryTable{Sel: sel}
			p.matchKw("AS")
			if a, ok := p.aliasIdent(); ok {
				st.Alias = a
			}
			return st, nil
		}
		// Parenthesized join tree.
		te, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return te, nil
	}
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	parts := []string{first}
	for p.peek().kind == tokPunct && p.peek().text == "." {
		p.pos++
		part, err := p.ident()
		if err != nil {
			return nil, err
		}
		parts = append(parts, part)
	}
	// Table function: name(args).
	if p.matchPunct("(") {
		var args []expr.Expr
		if !p.matchPunct(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.matchPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		tf := &TableFuncRef{Name: strings.Join(parts, "."), Args: args}
		p.matchKw("AS")
		if a, ok := p.aliasIdent(); ok {
			tf.Alias = a
		}
		return tf, nil
	}
	tr := &TableRef{Parts: parts}
	p.matchKw("AS")
	if a, ok := p.aliasIdent(); ok {
		tr.Alias = a
	}
	return tr, nil
}

// --- expressions ---

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.matchKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.Bin(expr.OpOr, l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.matchKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.Bin(expr.OpAnd, l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.matchKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.Not(e), nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]expr.Op{
	"=": expr.OpEq, "<>": expr.OpNe, "!=": expr.OpNe,
	"<": expr.OpLt, "<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// comparison
	if t := p.peek(); t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.pos++
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return expr.Bin(op, l, r), nil
		}
	}
	negate := false
	save := p.pos
	if p.matchKw("NOT") {
		negate = true
	}
	switch {
	case p.matchKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.matchKw("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: l, Pattern: pat, Negate: negate}, nil
	case p.matchKw("IN"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if p.isKw("SELECT") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &InSubqueryExpr{E: l, Sel: sel, Negate: negate}, nil
		}
		var list []expr.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.matchPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &expr.In{E: l, List: list, Negate: negate}, nil
	case p.matchKw("IS"):
		neg2 := p.matchKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		isn := &expr.IsNull{E: l, Negate: neg2}
		if negate {
			return expr.Not(isn), nil
		}
		return isn, nil
	}
	if negate {
		p.pos = save // stray NOT belongs to an outer production
	}
	return l, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return l, nil
		}
		var op expr.Op
		switch t.text {
		case "+":
			op = expr.OpAdd
		case "-":
			op = expr.OpSub
		case "||":
			op = expr.OpConcat
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = expr.Bin(op, l, r)
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return l, nil
		}
		var op expr.Op
		switch t.text {
		case "*":
			op = expr.OpMul
		case "/":
			op = expr.OpDiv
		default:
			return l, nil
		}
		p.pos++
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = expr.Bin(op, l, r)
	}
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.peek().kind == tokPunct && p.peek().text == "-" {
		p.pos++
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Constant-fold negative literals.
		if l, ok := e.(*expr.Literal); ok {
			switch l.Val.K {
			case value.KindInt:
				return expr.Lit(value.NewInt(-l.Val.I)), nil
			case value.KindDouble:
				return expr.Lit(value.NewDouble(-l.Val.F)), nil
			}
		}
		return &expr.UnOp{Op: expr.OpNeg, E: e}, nil
	}
	if p.peek().kind == tokPunct && p.peek().text == "+" {
		p.pos++
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q: %v", t.text, err)
			}
			return expr.Lit(value.NewDouble(f)), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", t.text, err)
		}
		return expr.Int(i), nil
	case tokString:
		p.pos++
		return expr.Str(t.text), nil
	case tokPunct:
		switch t.text {
		case "(":
			p.pos++
			if p.isKw("SELECT") {
				sel, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sel: sel}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "?":
			p.pos++
			return &expr.Param{Index: p.countParams()}, nil
		}
	case tokIdent, tokQuotedIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

// countParams numbers '?' placeholders in order of appearance.
func (p *parser) countParams() int {
	n := 0
	for i := 0; i < p.pos-1; i++ {
		if p.toks[i].kind == tokPunct && p.toks[i].text == "?" {
			n++
		}
	}
	return n
}

func (p *parser) parseIdentExpr() (expr.Expr, error) {
	t := p.peek()
	upper := strings.ToUpper(t.text)
	if t.kind == tokIdent {
		switch upper {
		case "NULL":
			p.pos++
			return expr.Lit(value.Null), nil
		case "TRUE":
			p.pos++
			return expr.Lit(value.NewBool(true)), nil
		case "FALSE":
			p.pos++
			return expr.Lit(value.NewBool(false)), nil
		case "DATE":
			if p.peekAt(1).kind == tokString {
				p.pos++
				s := p.next().text
				v, err := value.ParseDate(s)
				if err != nil {
					return nil, p.errorf("%v", err)
				}
				return expr.Lit(v), nil
			}
		case "TIMESTAMP":
			if p.peekAt(1).kind == tokString {
				p.pos++
				s := p.next().text
				v, err := value.ParseTimestamp(s)
				if err != nil {
					return nil, p.errorf("%v", err)
				}
				return expr.Lit(v), nil
			}
		case "CAST":
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			k, ok := value.KindFromSQL(tn)
			if !ok {
				return nil, p.errorf("unknown type %q in CAST", tn)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &expr.Cast{E: e, To: k}, nil
		case "CASE":
			return p.parseCase()
		case "EXISTS":
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Sel: sel}, nil
		}
	}
	// Identifier chain: a, a.b, a.b.c — or function call.
	p.pos++
	name := t.text
	for p.peek().kind == tokPunct && p.peek().text == "." {
		p.pos++
		nt := p.peek()
		if nt.kind != tokIdent && nt.kind != tokQuotedIdent {
			return nil, p.errorf("expected identifier after '.', got %q", nt.text)
		}
		p.pos++
		name += "." + nt.text
	}
	if p.matchPunct("(") {
		f := &expr.Func{Name: strings.ToUpper(name)}
		if p.matchPunct("*") {
			f.Star = true
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		if !p.matchPunct(")") {
			if p.matchKw("DISTINCT") {
				f.Distinct = true
			}
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, a)
				if !p.matchPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	return expr.Col(name), nil
}

func (p *parser) parseCase() (expr.Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &expr.CaseWhen{}
	// Simple CASE (CASE e WHEN v THEN …) is rewritten to searched form.
	var operand expr.Expr
	if !p.isKw("WHEN") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		operand = e
	}
	for p.matchKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = expr.Eq(expr.Clone(operand), cond)
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, struct {
			Cond expr.Expr
			Then expr.Expr
		}{cond, then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN branch")
	}
	if p.matchKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) intLiteral() (int64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errorf("expected integer, got %q", t.text)
	}
	p.pos++
	n, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.text)
	}
	return n, nil
}

// typeName consumes a SQL type, including an optional (n[,m]) suffix.
func (p *parser) typeName() (string, error) {
	base, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.matchPunct("(") {
		base += "("
		for !p.matchPunct(")") {
			if p.atEOF() {
				return "", p.errorf("unterminated type parameter list %q", base)
			}
			base += p.next().text
		}
		base += ")"
	}
	return base, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
