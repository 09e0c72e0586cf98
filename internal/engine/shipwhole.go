package engine

import (
	"errors"
	"fmt"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/sqlparse"
)

// tryShipWhole checks whether the complete statement can be processed by a
// single remote source — every referenced table (including tables inside
// WHERE subqueries) is a virtual table of the same source, and the source's
// capabilities cover the constructs used. On success the statement is
// rewritten against the remote object names, shipped, and only ORDER
// BY/LIMIT are applied locally (§4.2: "It is even possible that complete
// queries are processed via Hive and Hadoop").
func (p *planner) tryShipWhole(sel *sqlparse.SelectStmt) (exec.Iter, *planNode, bool, error) {
	info := &shipInfo{}
	if !p.shippableBlock(sel, info) || info.source == "" {
		return nil, nil, false, nil
	}
	caps := info.adapter.Capabilities()
	switch {
	case !caps.Select,
		info.tableCount > 1 && !caps.Joins,
		info.hasOuter && !caps.JoinsOuter,
		info.hasAgg && !caps.GroupBy,
		info.hasSubquery && !caps.Subqueries:
		p.plan.Note("rejected ship-whole: %s lacks capability for the statement", info.source)
		return nil, nil, false, nil
	}

	shipped := p.rewriteForShip(sel)
	// ORDER BY and LIMIT are applied locally: no ordering assumptions are
	// made about remote results (the paper's evaluation removes them for
	// the same reason).
	shipped.OrderBy = nil
	shipped.Limit = -1
	shipped.Hints = nil
	sql := sqlparse.RenderSelect(shipped)

	opts := p.remoteOpts(hasAnyPredicate(sel))
	res, err := p.e.remoteQuery(p.ctx, info.source, info.adapter, sql, opts)
	if err != nil {
		if errors.Is(err, faults.ErrCircuitOpen) {
			// The source's breaker is open and no fallback materialization
			// is valid: decline ship-whole so the planner can try per-leaf
			// strategies (which may hit leaf-level fallback entries).
			p.e.Metrics.PlannerFallbacks.Inc()
			p.plan.Note("rejected ship-whole: %s breaker open, falling back to per-leaf strategies", info.source)
			return nil, nil, false, nil
		}
		return nil, nil, false, fmt.Errorf("remote source %s: %w", info.source, err)
	}
	p.e.Metrics.RemoteQueries.Inc()
	p.e.Metrics.RemoteRowsFetched.Add(int64(res.Rows.Len()))
	if res.FromCache {
		p.e.Metrics.RemoteCacheHits.Inc()
	}
	p.plan.Note("chose ship-whole to %s: %d tables in one shipped query", info.source, info.tableCount)

	label := fmt.Sprintf("Remote Query [%s] (%d rows)", info.source, res.Rows.Len())
	if res.FromCache {
		label += " [remote cache hit]"
	}
	if res.FromFallback {
		label += " [fallback cache]"
	}
	blk, err := exec.AnalyzeProjected(sel, res.Rows.Schema)
	if err != nil {
		return nil, nil, false, err
	}
	root := orderLimitNodes(sel, node(label, node("shipped: "+sql)))
	return blk.Finish(exec.NewSlice(res.Rows.Schema, res.Rows.Data)), root, true, nil
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
	source      string
	adapter     fed.Adapter
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
	if !p.shippableFrom(sel.From, info) {
		return false
	}
	ok := true
	for _, c := range expr.SplitConjuncts(sel.Where) {
		expr.Walk(c, func(n expr.Expr) bool {
			switch sq := n.(type) {
			case *sqlparse.InSubqueryExpr:
				info.hasSubquery = true
				if !p.shippableBlock(sq.Sel, info) {
					ok = false
				}
				return false
			case *sqlparse.ExistsExpr:
				info.hasSubquery = true
				if !p.shippableBlock(sq.Sel, info) {
					ok = false
				}
				return false
			case *sqlparse.SubqueryExpr:
				info.hasSubquery = true
				if !p.shippableBlock(sq.Sel, info) {
					ok = false
				}
				return false
			}
			return true
		})
	}
	return ok
}

func (p *planner) shippableFrom(te sqlparse.TableExpr, info *shipInfo) bool {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		vt, ok := p.e.cat.VirtualTable(t.Name())
		if !ok {
			return false
		}
		if info.source == "" {
			info.source = vt.Source
			a, err := p.e.adapter(vt.Source)
			if err != nil {
				return false
			}
			info.adapter = a
		} else if !equalFold(info.source, vt.Source) {
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
		if vt, ok := p.e.cat.VirtualTable(t.Name()); ok {
			return &sqlparse.TableRef{Parts: vt.Remote, Alias: t.Binding()}
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

func equalFold(a, b string) bool { return strings.EqualFold(a, b) }
