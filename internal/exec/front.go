package exec

import (
	"fmt"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// The front half of a SELECT block: the logical analyses between the AST
// and a processor's physical plan, which the engine planner and the Hive
// compiler share. A processor passes in what only it knows — how a FROM
// table resolves, and how a nested block runs.

// SchemaOf resolves a FROM leaf, a base table or a table function, to the
// qualified schema it produces.
type SchemaOf func(sqlparse.TableExpr) (*value.Schema, error)

// RunBlock plans and runs a nested SELECT block to its rows.
type RunBlock func(*sqlparse.SelectStmt) (*value.Rows, error)

// FromSchema resolves the schema a FROM tree produces without running it:
// a join concatenates its inputs, a derived table is its block's output
// under its alias, and leaf resolves the rest. No FROM produces no columns.
func FromSchema(te sqlparse.TableExpr, leaf SchemaOf) (*value.Schema, error) {
	switch t := te.(type) {
	case nil:
		return value.NewSchema(), nil
	case *sqlparse.JoinExpr:
		l, err := FromSchema(t.L, leaf)
		if err != nil {
			return nil, err
		}
		r, err := FromSchema(t.R, leaf)
		if err != nil {
			return nil, err
		}
		return l.Concat(r), nil
	case *sqlparse.SubqueryTable:
		inner, err := FromSchema(t.Sel.From, leaf)
		if err != nil {
			return nil, err
		}
		blk, err := AnalyzeBlock(t.Sel, inner)
		if err != nil {
			return nil, err
		}
		return blk.Out.Qualify(t.Alias), nil
	}
	return leaf(te)
}

// SplitWhere splits a block's WHERE into its plain conjuncts and its
// [NOT] IN/EXISTS predicates, each in order. A scalar subquery in a plain
// conjunct is run once and replaced by its value.
func SplitWhere(where expr.Expr, run RunBlock) (conjs []expr.Expr, preds []sqlparse.SubqueryPredicate, err error) {
	for _, c := range expr.SplitConjuncts(where) {
		if p, ok := sqlparse.AsSubqueryPredicate(c); ok {
			preds = append(preds, p)
			continue
		}
		if c, err = inlineScalars(c, run); err != nil {
			return nil, nil, err
		}
		conjs = append(conjs, c)
	}
	return conjs, preds, nil
}

// inlineScalars replaces each scalar subquery in c with the literal it
// returns: NULL for no row, an error for more than one row or column.
func inlineScalars(c expr.Expr, run RunBlock) (expr.Expr, error) {
	var firstErr error
	out := expr.Rewrite(c, func(n expr.Expr) expr.Expr {
		sq, ok := n.(*sqlparse.SubqueryExpr)
		if !ok {
			return nil
		}
		rows, err := run(sq.Sel)
		switch {
		case err != nil:
		case rows.Schema.Len() != 1:
			err = fmt.Errorf("scalar subquery must return one column")
		case rows.Len() == 1:
			return expr.Lit(rows.Data[0][0])
		case rows.Len() > 1:
			err = fmt.Errorf("scalar subquery returned %d rows", rows.Len())
		}
		if firstErr == nil {
			firstErr = err
		}
		return expr.Lit(value.Null)
	})
	return out, firstErr
}

// Decorrelate turns a [NOT] IN/EXISTS predicate of a block whose FROM
// produces outer into the two sides of a semi/anti join: the outer key
// expressions, and the inner block whose rows, column by column, are the
// keys they match. IN keeps its subquery. In EXISTS, each equality between
// an outer and an inner expression becomes a key, and the inner block
// projects the inner sides under the rest of its WHERE. An uncorrelated
// EXISTS has no keys: the inner block is then the subquery limited to one
// row, which ExistsHolds runs for the predicate's one value.
func Decorrelate(p sqlparse.SubqueryPredicate, outer *value.Schema, leaf SchemaOf) ([]expr.Expr, *sqlparse.SelectStmt, error) {
	if p.Outer != nil {
		return []expr.Expr{p.Outer}, p.Sel, nil
	}
	inner, err := FromSchema(p.Sel.From, leaf)
	if err != nil {
		return nil, nil, err
	}
	var keys, rest []expr.Expr
	var items []sqlparse.SelectItem
	for _, c := range expr.SplitConjuncts(p.Sel.Where) {
		if o, i := expr.CorrelationPair(c, outer, inner); o != nil {
			keys = append(keys, o)
			items = append(items, sqlparse.SelectItem{Expr: expr.Clone(i)})
			continue
		}
		rest = append(rest, c)
	}
	if len(keys) == 0 {
		return nil, &sqlparse.SelectStmt{Items: p.Sel.Items, From: p.Sel.From, Where: expr.And(rest...),
			GroupBy: p.Sel.GroupBy, Having: p.Sel.Having, Limit: 1}, nil
	}
	return keys, &sqlparse.SelectStmt{Items: items, From: p.Sel.From, Where: expr.And(rest...), Limit: -1}, nil
}

// ExistsHolds runs an uncorrelated EXISTS's one-row probe, the inner block
// Decorrelate returned, and reports the predicate's value, which is the
// same for every outer row.
func ExistsHolds(p sqlparse.SubqueryPredicate, probe *sqlparse.SelectStmt, run RunBlock) (bool, error) {
	rows, err := run(probe)
	if err != nil {
		return false, err
	}
	return (rows.Len() > 0) != p.Anti, nil
}
