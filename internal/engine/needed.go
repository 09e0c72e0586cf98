package engine

import (
	"strings"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// neededOrds resolves the statement-wide referenced-column name set against
// a table schema. nil means every column is needed.
func neededOrds(needed map[string]bool, schema *value.Schema) []bool {
	if needed == nil {
		return nil
	}
	out := make([]bool, len(schema.Cols))
	for i, c := range schema.Cols {
		out[i] = needed[strings.ToUpper(c.Name)]
	}
	return out
}

// collectNeeded walks a full statement — including every nested subquery —
// and returns the upper-cased unqualified column names it references.
// nil means "assume everything is needed": a star item, a CCL KEEP clause,
// or an expression node the walker does not recognize disables pruning,
// keeping late materialization strictly conservative.
func collectNeeded(sel *sqlparse.SelectStmt) map[string]bool {
	set := map[string]bool{}
	all := false
	var walkExpr func(e expr.Expr)
	var walkSel func(s *sqlparse.SelectStmt)
	var walkFrom func(te sqlparse.TableExpr)
	walkExpr = func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			switch sq := n.(type) {
			case *expr.ColRef:
				name := sq.Name
				if i := strings.LastIndexByte(name, '.'); i >= 0 {
					name = name[i+1:]
				}
				set[strings.ToUpper(name)] = true
			case *sqlparse.SubqueryExpr:
				walkSel(sq.Sel)
			case *sqlparse.ExistsExpr:
				walkSel(sq.Sel)
			case *sqlparse.InSubqueryExpr:
				walkExpr(sq.E)
				walkSel(sq.Sel)
			case *expr.Literal, *expr.Param, *expr.BinOp, *expr.UnOp, *expr.IsNull,
				*expr.Between, *expr.In, *expr.Like, *expr.Func, *expr.Cast, *expr.CaseWhen:
				// Known scalar nodes: expr.Walk descends into their children.
			default:
				all = true // unknown node: it may hide column references
			}
			return true
		})
	}
	walkFrom = func(te sqlparse.TableExpr) {
		switch t := te.(type) {
		case *sqlparse.JoinExpr:
			walkFrom(t.L)
			walkFrom(t.R)
			walkExpr(t.On)
		case *sqlparse.SubqueryTable:
			walkSel(t.Sel)
		case *sqlparse.TableFuncRef:
			for _, a := range t.Args {
				walkExpr(a)
			}
		}
	}
	walkSel = func(s *sqlparse.SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			if it.Star {
				all = true
				continue
			}
			walkExpr(it.Expr)
		}
		walkFrom(s.From)
		walkExpr(s.Where)
		for _, g := range s.GroupBy {
			walkExpr(g)
		}
		walkExpr(s.Having)
		for _, o := range s.OrderBy {
			walkExpr(o.Expr)
		}
		if s.Keep != nil {
			all = true
		}
	}
	walkSel(sel)
	if all {
		return nil
	}
	return set
}
