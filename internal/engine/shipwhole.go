package engine

import (
	"errors"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/sqlparse"
)

// tryShipWhole checks whether the complete statement can be processed by a
// single remote source — every referenced table (including tables inside
// WHERE subqueries) is a virtual table of the same source, and the source's
// capabilities cover the constructs used. On success the statement is
// rewritten against the remote object names, shipped, and only ORDER
// BY/LIMIT are applied locally (§4.2: "It is even possible that complete
// queries are processed via Hive and Hadoop"): the returned block's Finish.
// No block means the statement does not ship whole.
func (p *planner) tryShipWhole(sel *sqlparse.SelectStmt) (*block, error) {
	info := &shipInfo{}
	if !p.shippableBlock(sel, info) || info.src == nil {
		return nil, nil
	}
	caps := info.src.adapter.Capabilities()
	switch {
	case !caps.Select,
		info.tableCount > 1 && !caps.Joins,
		info.hasOuter && !caps.JoinsOuter,
		info.hasAgg && !caps.GroupBy,
		info.hasSubquery && !caps.Subqueries:
		p.plan.Note("rejected ship-whole: %s lacks capability for the statement", info.src.source)
		return nil, nil
	}

	shipped := p.rewriteForShip(sel)
	// ORDER BY and LIMIT are applied locally: no ordering assumptions are
	// made about remote results (the paper's evaluation removes them for
	// the same reason).
	shipped.OrderBy = nil
	shipped.Limit = -1
	shipped.Hints = nil
	sql := sqlparse.RenderSelect(shipped)

	res, n, err := p.fetchRemote(info.src.source, info.src.adapter, shipped, hasAnyPredicate(sel), "Remote Query")
	if err != nil {
		if errors.Is(err, faults.ErrCircuitOpen) {
			// The source's breaker is open and no fallback materialization
			// is valid: decline ship-whole so the planner can try per-leaf
			// strategies (which may hit leaf-level fallback entries).
			p.e.Metrics.PlannerFallbacks.Inc()
			p.plan.Note("rejected ship-whole: %s breaker open, falling back to per-leaf strategies", info.src.source)
			return nil, nil
		}
		return nil, err
	}
	p.plan.Note("chose ship-whole to %s: %d tables in one shipped query", info.src.source, info.tableCount)

	blk, err := exec.AnalyzeProjected(sel, res.Rows.Schema)
	if err != nil {
		return nil, err
	}
	n.Attrs = []string{"shipped: " + sql}
	return &block{in: exec.RowRel(res.Rows.Schema, res.Rows.Data, nil), blk: blk, node: n}, nil
}

// hasAnyPredicate reports whether the statement carries a predicate in any
// of its query blocks (outer WHERE/HAVING, outer-join ON filters, or inside
// derived tables) — the §4.4 rule "we only materialize queries with
// predicates" applies to the statement as a whole.
func hasAnyPredicate(sel *sqlparse.SelectStmt) bool {
	if sel == nil {
		return false
	}
	if sel.Where != nil || sel.Having != nil {
		return true
	}
	var fromHas func(te sqlparse.TableExpr) bool
	fromHas = func(te sqlparse.TableExpr) bool {
		switch t := te.(type) {
		case *sqlparse.JoinExpr:
			if t.On != nil && len(expr.SplitConjuncts(t.On)) > 1 {
				// Joins with filtering ON conjuncts beyond the key count.
				return true
			}
			return fromHas(t.L) || fromHas(t.R)
		case *sqlparse.SubqueryTable:
			return hasAnyPredicate(t.Sel)
		}
		return false
	}
	return fromHas(sel.From)
}

type shipInfo struct {
	src         *leaf // the first table; every other shares its source
	tableCount  int
	hasOuter    bool
	hasAgg      bool
	hasSubquery bool
}

// shippableBlock checks one query block recursively.
func (p *planner) shippableBlock(sel *sqlparse.SelectStmt, info *shipInfo) bool {
	if sel.From == nil {
		return false
	}
	if len(sel.GroupBy) > 0 {
		info.hasAgg = true
	}
	for _, item := range sel.Items {
		if item.Expr != nil && expr.HasAggregate(item.Expr) {
			info.hasAgg = true
		}
	}
	if !p.shippableFrom(sel.From, info) || exec.CheckSubqueries(sel) != nil {
		// A subquery outside WHERE is one neither side runs: planned here,
		// the block fails with the engine's own error before any fetch.
		return false
	}
	ok := true
	for _, sub := range sqlparse.Subqueries(sel.Where) {
		info.hasSubquery = true
		ok = p.shippableBlock(sub, info) && ok
	}
	return ok
}

func (p *planner) shippableFrom(te sqlparse.TableExpr, info *shipInfo) bool {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		l, err := p.leafOf(t)
		if err != nil || l.place != placeRemote {
			return false
		}
		if info.src == nil {
			info.src = l
		} else if !strings.EqualFold(info.src.source, l.source) {
			return false
		}
		info.tableCount++
		return true
	case *sqlparse.JoinExpr:
		if t.Type == sqlparse.JoinLeft || t.Type == sqlparse.JoinRight || t.Type == sqlparse.JoinFull {
			info.hasOuter = true
		}
		return p.shippableFrom(t.L, info) && p.shippableFrom(t.R, info)
	case *sqlparse.SubqueryTable:
		return p.shippableBlock(t.Sel, info)
	default:
		return false
	}
}

// rewriteForShip deep-copies the statement replacing virtual table names
// with their remote object paths (keeping the local binding as the alias so
// column references resolve unchanged on the remote side).
func (p *planner) rewriteForShip(sel *sqlparse.SelectStmt) *sqlparse.SelectStmt {
	out := *sel
	out.From = p.rewriteFromForShip(sel.From)
	out.Where = p.rewriteExprForShip(sel.Where)
	return &out
}

func (p *planner) rewriteFromForShip(te sqlparse.TableExpr) sqlparse.TableExpr {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		if l, err := p.leafOf(t); err == nil && l.place == placeRemote {
			return &sqlparse.TableRef{Parts: l.path, Alias: l.binding}
		}
		return t
	case *sqlparse.JoinExpr:
		return &sqlparse.JoinExpr{Type: t.Type, L: p.rewriteFromForShip(t.L), R: p.rewriteFromForShip(t.R), On: t.On}
	case *sqlparse.SubqueryTable:
		return &sqlparse.SubqueryTable{Sel: p.rewriteForShip(t.Sel), Alias: t.Alias}
	}
	return te
}

func (p *planner) rewriteExprForShip(e expr.Expr) expr.Expr {
	if e == nil {
		return nil
	}
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		switch sq := n.(type) {
		case *sqlparse.InSubqueryExpr:
			return &sqlparse.InSubqueryExpr{E: sq.E, Sel: p.rewriteForShip(sq.Sel), Negate: sq.Negate}
		case *sqlparse.ExistsExpr:
			return &sqlparse.ExistsExpr{Sel: p.rewriteForShip(sq.Sel), Negate: sq.Negate}
		case *sqlparse.SubqueryExpr:
			return &sqlparse.SubqueryExpr{Sel: p.rewriteForShip(sq.Sel)}
		}
		return nil
	})
}
