package sqlparse

import (
	"strings"

	"hana/internal/expr"
	"hana/internal/value"
)

// ColumnSet is the set of column names a statement references, upper-cased
// and unqualified. A nil set stands for every column.
type ColumnSet map[string]bool

// Has reports whether the set holds the column's name, qualified or not. A
// nil set holds every name.
func (s ColumnSet) Has(name string) bool {
	if s == nil {
		return true
	}
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return s[strings.ToUpper(name)]
}

// Mask marks, by ordinal, the columns of schema the set holds. A nil set
// gives a nil mask, which marks every column.
func (s ColumnSet) Mask(schema *value.Schema) []bool {
	if s == nil {
		return nil
	}
	out := make([]bool, schema.Len())
	for i, c := range schema.Cols {
		out[i] = s.Has(c.Name)
	}
	return out
}

// ReferencedColumns walks a full statement — every nested subquery, derived
// table and join condition included — and returns the column names it
// references. It returns nil ("every column") for a star item, a CCL KEEP
// clause or an expression node the walker does not recognize, so a reader
// that skips the columns outside the set never drops one the statement
// reads. Names are matched without their qualifier, so a name referenced
// through one table keeps that name in every table.
func ReferencedColumns(sel *SelectStmt) ColumnSet {
	set := ColumnSet{}
	all := false
	var walkExpr func(e expr.Expr)
	var walkSel func(s *SelectStmt)
	var walkFrom func(te TableExpr)
	walkExpr = func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			switch sq := n.(type) {
			case *expr.ColRef:
				name := sq.Name
				if i := strings.LastIndexByte(name, '.'); i >= 0 {
					name = name[i+1:]
				}
				set[strings.ToUpper(name)] = true
			case *SubqueryExpr:
				walkSel(sq.Sel)
			case *ExistsExpr:
				walkSel(sq.Sel)
			case *InSubqueryExpr:
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
	walkFrom = func(te TableExpr) {
		switch t := te.(type) {
		case *JoinExpr:
			walkFrom(t.L)
			walkFrom(t.R)
			walkExpr(t.On)
		case *SubqueryTable:
			walkSel(t.Sel)
		case *TableFuncRef:
			for _, a := range t.Args {
				walkExpr(a)
			}
		}
	}
	walkSel = func(s *SelectStmt) {
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
