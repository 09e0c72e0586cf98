package engine

import (
	"fmt"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// fromLeaf is one leaf of a block's FROM tree as placeSubqueries sees it
// before anything is planned: its qualified schema, and whether a conjunct
// over it is evaluated by this engine's own scan (in-memory and sharded
// tables, derived tables) rather than shipped to a remote source or the
// extended store, or left on top of a table function.
type fromLeaf struct {
	schema    *value.Schema
	placeable bool
}

func (p *planner) fromLeaves(te sqlparse.TableExpr) ([]fromLeaf, error) {
	if te == nil {
		return nil, nil
	}
	if j, ok := te.(*sqlparse.JoinExpr); ok {
		l, err := p.fromLeaves(j.L)
		if err != nil {
			return nil, err
		}
		r, err := p.fromLeaves(j.R)
		return append(l, r...), err
	}
	if t, ok := te.(*sqlparse.TableRef); ok {
		l, err := p.leafOf(t)
		if err != nil {
			return nil, err
		}
		return []fromLeaf{{schema: l.schema, placeable: l.place == placeLocal || l.place == placeSharded}}, nil
	}
	schema, err := p.fromSchemaPreview(te)
	if err != nil {
		return nil, err
	}
	_, fn := te.(*sqlparse.TableFuncRef)
	return []fromLeaf{{schema: schema, placeable: !fn}}, nil
}

// placeable reports whether every column of e (at least one) belongs to a
// placeable leaf.
func placeable(e expr.Expr, leaves []fromLeaf) bool {
	cols := expr.Columns(e)
	for _, c := range cols {
		found := false
		for _, l := range leaves {
			if l.schema.Find(c) >= 0 {
				if !l.placeable {
					return false
				}
				found = true
			}
		}
		if !found {
			return false
		}
	}
	return len(cols) > 0
}

// blockEquiConjuncts collects the equality conjuncts that hold on every
// output row of the block's FROM tree: those of the WHERE pool plus the ON
// conjuncts of inner joins not nested under the null-supplying side of a
// LEFT OUTER JOIN.
func blockEquiConjuncts(te sqlparse.TableExpr, pool []expr.Expr) []*expr.BinOp {
	var out []*expr.BinOp
	add := func(cs []expr.Expr) {
		for _, c := range cs {
			if b, ok := c.(*expr.BinOp); ok && b.Op == expr.OpEq {
				out = append(out, b)
			}
		}
	}
	add(pool)
	var walk func(te sqlparse.TableExpr)
	walk = func(te sqlparse.TableExpr) {
		j, ok := te.(*sqlparse.JoinExpr)
		if !ok {
			return
		}
		walk(j.L)
		if j.Type != sqlparse.JoinLeft {
			add(expr.SplitConjuncts(j.On))
			walk(j.R)
		}
	}
	walk(te)
	return out
}

// keyValues evaluates key over rows and returns the non-NULL values, and
// whether a NULL was seen.
func keyValues(rows []value.Row, key expr.Expr) (vals []value.Value, sawNull bool, err error) {
	vals = make([]value.Value, 0, len(rows))
	for _, row := range rows {
		v, err := key.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		vals = append(vals, v)
	}
	return vals, sawNull, nil
}

// placeSubqueries plans the block's subquery predicates first. Each
// uncorrelated [NOT] IN (SELECT …) and each [NOT] EXISTS with exactly one
// correlation equality is evaluated now, and its distinct keys become one
// IN conjunct over the outer expression, appended to the pool — so it is
// placed like any other conjunct: in the scan of the one leaf that covers
// it, as a join residual when it spans two relations, in the final Filter
// when it names the null-supplying side of a LEFT OUTER JOIN (that side is
// planned with an empty pool). A semi (not anti) key set also filters every
// placeable leaf expression that a block-level equality conjunct equates
// with the outer expression (o_orderkey = l_orderkey: lineitem is cut to
// the matching orders before it is hashed); both sides must have the same
// kind, where Compare-equality is transitive.
//
// Returned transforms keep the post-join semi/anti join: outer expressions
// over a virtual table, an extended/hybrid table or a table function (what
// ships to a remote source or the cold tier stays as it was), EXISTS with
// several correlation keys, and uncorrelated EXISTS (a constant, not a
// join). nodes are the evaluated subqueries' plans.
func (p *planner) placeSubqueries(sel *sqlparse.SelectStmt, tfs []sqlparse.SubqueryPredicate, pool *[]expr.Expr) (rest []sqlparse.SubqueryPredicate, nodes []*planNode, err error) {
	if len(tfs) == 0 {
		return nil, nil, nil
	}
	leaves, err := p.fromLeaves(sel.From)
	if err != nil {
		// A FROM tree with no schema before it runs (a table provider) —
		// or none at all, which planFromExpr reports in its own words.
		return tfs, nil, nil
	}
	outer := value.NewSchema()
	for _, l := range leaves {
		outer = outer.Concat(l.schema)
	}
	equis := blockEquiConjuncts(sel.From, *pool)
	for _, tf := range tfs {
		key, sub := tf.Outer, tf.Sel
		if key == nil {
			outerKeys, innerKeys, remaining, err := p.decorrelate(tf.Sel, outer)
			if err != nil {
				return nil, nil, err
			}
			if len(outerKeys) != 1 {
				rest = append(rest, tf)
				continue
			}
			key = outerKeys[0]
			sub = &sqlparse.SelectStmt{Items: []sqlparse.SelectItem{{Expr: expr.Clone(innerKeys[0])}},
				From: tf.Sel.From, Where: expr.And(remaining...), Limit: -1}
		}
		if !placeable(key, leaves) {
			rest = append(rest, tf)
			continue
		}
		rows, subNode, err := p.blockRows(sub)
		if err != nil {
			return nil, nil, err
		}
		if rows.Schema.Len() != 1 {
			return nil, nil, fmt.Errorf("IN subquery must return one column, got %d", rows.Schema.Len())
		}
		vals, sawNull, err := keyValues(rows.Data, &expr.ColRef{Ord: 0})
		if err != nil {
			return nil, nil, err
		}
		var conj expr.Expr
		var in *expr.In
		switch {
		case !tf.Anti:
			// IN / EXISTS: NULL keys match nothing; an empty set is the
			// impossible filter maybeSemiJoin uses.
			if len(vals) == 0 {
				vals = append(vals, value.Null)
			}
			in = expr.NewIn(key, vals, false)
			conj = in
		case len(vals) == 0 && !(tf.NullAware() && sawNull):
			// NOT IN / NOT EXISTS over nothing holds for every row, NULL
			// outer keys included: no conjunct.
			nodes = append(nodes, node("Subquery Key Set (empty, predicate holds for every row)", subNode))
			continue
		case tf.NullAware():
			// NOT IN: a NULL in the list makes every non-match unknown.
			if sawNull {
				vals = append(vals, value.Null)
			}
			in = expr.NewIn(key, vals, true)
			conj = in
		default:
			// NOT EXISTS: a NULL outer key matches no inner row.
			in = expr.NewIn(expr.Clone(key), vals, true)
			conj = expr.Bin(expr.OpOr, &expr.IsNull{E: key}, in)
		}
		p.addKeySet(pool, conj, len(in.List))
		nodes = append(nodes, node("Subquery Key Set: "+planSQL(conj), subNode))
		if tf.Anti {
			continue
		}
		keySQL, keyKind := key.SQL(), exec.ExprKind(key, outer)
		for _, eq := range equis {
			other := eq.R
			if strings.EqualFold(eq.R.SQL(), keySQL) {
				other = eq.L
			} else if !strings.EqualFold(eq.L.SQL(), keySQL) {
				continue
			}
			if placeable(other, leaves) && exec.ExprKind(other, outer) == keyKind {
				derived := expr.Clone(in).(*expr.In)
				derived.E = expr.Clone(other)
				p.addKeySet(pool, derived, len(in.List))
			}
		}
	}
	return rest, nodes, nil
}

// addKeySet appends a conjunct over n subquery keys to the pool, recording n
// for the sharded leaf's ship-or-filter choice.
func (p *planner) addKeySet(pool *[]expr.Expr, conj expr.Expr, n int) {
	if p.keySets == nil {
		p.keySets = map[expr.Expr]int{}
	}
	p.keySets[conj] = n
	*pool = append(*pool, conj)
	p.plan.Note("subquery key set: %d keys, placed as %s", n, planSQL(conj))
}

// decorrelate splits an EXISTS subquery's WHERE into the equalities between
// an outer and an inner expression (the join keys) and the rest.
func (p *planner) decorrelate(sel *sqlparse.SelectStmt, outer *value.Schema) (outerKeys, innerKeys, remaining []expr.Expr, err error) {
	inner, err := p.fromSchemaPreview(sel.From)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, c := range expr.SplitConjuncts(sel.Where) {
		if ok, ik := correlationPair(c, outer, inner); ok != nil {
			outerKeys = append(outerKeys, ok)
			innerKeys = append(innerKeys, ik)
			continue
		}
		remaining = append(remaining, c)
	}
	return outerKeys, innerKeys, remaining, nil
}

// planSQL renders a predicate for EXPLAIN and plan notes: a literal list of
// more than 8 elements prints as its size.
func planSQL(e expr.Expr) string { return elideLists(e).SQL() }

func elideLists(e expr.Expr) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		in, ok := n.(*expr.In)
		if !ok || len(in.List) <= 8 {
			return nil
		}
		size := expr.Col(fmt.Sprintf("<%d values>", len(in.List)))
		return &expr.In{E: in.E, List: []expr.Expr{size}, Negate: in.Negate}
	})
}

// applyTransform runs one subquery predicate placeSubqueries left alone as
// a semi/anti hash join on top of the block's relation: its rows (batches
// stay batches) probe the subquery's rows.
func (p *planner) applyTransform(in exec.Rel, root *planNode, tf sqlparse.SubqueryPredicate) (exec.Rel, *planNode, error) {
	kind := exec.JoinSemi
	label := "Semi Join (IN/EXISTS subquery)"
	if tf.Anti {
		kind = exec.JoinAnti
		label = "Anti Join (NOT IN/NOT EXISTS subquery)"
	}
	if tf.NullAware() {
		kind = exec.JoinAntiNullAware
	}

	// IN (SELECT …) is uncorrelated: the subquery's single output column is
	// the build key.
	outerKeys, subSel := []expr.Expr{tf.Outer}, tf.Sel
	if tf.Outer == nil {
		// EXISTS: decorrelate equality predicates between outer and inner
		// columns into join keys.
		var innerKeys, remaining []expr.Expr
		var err error
		outerKeys, innerKeys, remaining, err = p.decorrelate(tf.Sel, in.Schema)
		if err != nil {
			return exec.Rel{}, nil, err
		}
		if len(outerKeys) == 0 {
			// Uncorrelated EXISTS: evaluate once.
			probe := &sqlparse.SelectStmt{Items: tf.Sel.Items, From: tf.Sel.From,
				Where: expr.And(remaining...), GroupBy: tf.Sel.GroupBy, Having: tf.Sel.Having, Limit: 1}
			rows, _, err := p.blockRows(probe)
			if err != nil {
				return exec.Rel{}, nil, err
			}
			exists := rows.Len() > 0
			if exists != tf.Anti {
				return in, node("Exists(const true)", root), nil
			}
			return exec.Rel{Schema: in.Schema}, node("Exists(const false)", root), nil
		}
		// Plan the inner block projecting the correlation keys.
		items := make([]sqlparse.SelectItem, len(innerKeys))
		for i, k := range innerKeys {
			items[i] = sqlparse.SelectItem{Expr: expr.Clone(k)}
		}
		subSel = &sqlparse.SelectStmt{Items: items, From: tf.Sel.From, Where: expr.And(remaining...), Limit: -1}
		label += " (decorrelated)"
	}
	sub, subNode, err := p.blockRows(subSel)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	if tf.Outer != nil && sub.Schema.Len() != 1 {
		return exec.Rel{}, nil, fmt.Errorf("IN subquery must return one column, got %d", sub.Schema.Len())
	}
	leftKeys := make([]expr.Expr, len(outerKeys))
	rightKeys := make([]expr.Expr, len(outerKeys))
	for i, k := range outerKeys {
		if leftKeys[i], err = expr.BindClone(k, in.Schema); err != nil {
			return exec.Rel{}, nil, err
		}
		rightKeys[i] = &expr.ColRef{Name: sub.Schema.Cols[i].Name, Ord: i}
	}
	rows, err := exec.HashJoinParallel(p.ctx, p.e.pool, p.width, 0, p.stats, kind,
		in, exec.Rel{Schema: sub.Schema, Rows: sub.Data}, leftKeys, rightKeys, nil, 0)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	return exec.Rel{Schema: in.Schema, Rows: rows}, node(label, root, subNode), nil
}

// correlationPair decomposes an equality between an outer column and an
// inner column; returns (outerExpr, innerExpr) or nils.
func correlationPair(c expr.Expr, outer, inner *value.Schema) (expr.Expr, expr.Expr) {
	b, ok := c.(*expr.BinOp)
	if !ok || b.Op != expr.OpEq {
		return nil, nil
	}
	side := func(e expr.Expr) (isOuter, isInner bool) {
		cols := expr.Columns(e)
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

// inlineScalarSubqueries replaces scalar subqueries with their computed
// literal value.
func (p *planner) inlineScalarSubqueries(c expr.Expr) (expr.Expr, error) {
	var firstErr error
	out := expr.Rewrite(c, func(n expr.Expr) expr.Expr {
		sq, ok := n.(*sqlparse.SubqueryExpr)
		if !ok {
			return nil
		}
		rows, _, err := p.blockRows(sq.Sel)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return expr.Lit(value.Null)
		}
		if rows.Schema.Len() != 1 {
			if firstErr == nil {
				firstErr = fmt.Errorf("scalar subquery must return one column")
			}
			return expr.Lit(value.Null)
		}
		switch rows.Len() {
		case 0:
			return expr.Lit(value.Null)
		case 1:
			return expr.Lit(rows.Data[0][0])
		default:
			if firstErr == nil {
				firstErr = fmt.Errorf("scalar subquery returned %d rows", rows.Len())
			}
			return expr.Lit(value.Null)
		}
	})
	return out, firstErr
}

// fromSchemaPreview resolves the schema a FROM tree will produce without
// executing it — used for decorrelation analysis.
func (p *planner) fromSchemaPreview(te sqlparse.TableExpr) (*value.Schema, error) {
	switch t := te.(type) {
	case nil:
		return value.NewSchema(), nil
	case *sqlparse.TableRef:
		l, err := p.leafOf(t)
		if err != nil {
			return nil, err
		}
		return l.schema, nil
	case *sqlparse.JoinExpr:
		l, err := p.fromSchemaPreview(t.L)
		if err != nil {
			return nil, err
		}
		r, err := p.fromSchemaPreview(t.R)
		if err != nil {
			return nil, err
		}
		return l.Concat(r), nil
	case *sqlparse.TableFuncRef:
		if vf, ok := p.e.cat.VirtualFunction(t.Name); ok {
			return vf.Returns.Qualify(t.Binding()), nil
		}
		return nil, fmt.Errorf("table function %s not found", t.Name)
	case *sqlparse.SubqueryTable:
		inner, err := p.fromSchemaPreview(t.Sel.From)
		if err != nil {
			return nil, err
		}
		blk, err := exec.AnalyzeBlock(t.Sel, inner)
		if err != nil {
			return nil, err
		}
		return blk.Out.Qualify(t.Alias), nil
	}
	return nil, fmt.Errorf("unsupported FROM element %T", te)
}
