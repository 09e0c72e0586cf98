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
	schema, err := exec.FromSchema(te, p.schemaOf)
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

// placeSubqueries plans the block's subquery predicates first. Each
// uncorrelated [NOT] IN (SELECT …) and each [NOT] EXISTS with exactly one
// correlation equality is evaluated now; its key set is built from the
// subquery's key column batch by batch (exec.KeySet), unboxed, and becomes
// one IN conjunct over the outer expression, appended to the pool — so it is
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
// join). nodes are the evaluated subqueries' plans, each under its key set.
func (p *planner) placeSubqueries(sel *sqlparse.SelectStmt, tfs []sqlparse.SubqueryPredicate, pool *[]expr.Expr) (rest []sqlparse.SubqueryPredicate, nodes []*exec.PlanNode, err error) {
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
		keys, sub, err := exec.Decorrelate(tf, outer, p.schemaOf)
		if err != nil {
			return nil, nil, err
		}
		if len(keys) != 1 || !placeable(keys[0], leaves) {
			rest = append(rest, tf)
			continue
		}
		key := keys[0]
		rows, subNode, err := p.blockRel(sub)
		if err != nil {
			return nil, nil, err
		}
		if rows.Schema.Len() != 1 {
			return nil, nil, fmt.Errorf("IN subquery must return one column, got %d", rows.Schema.Len())
		}
		set, err := exec.KeySet(rows, &expr.ColRef{Ord: 0})
		if err != nil {
			return nil, nil, err
		}
		var conj expr.Expr
		var in *expr.In
		switch {
		case !tf.Anti:
			// IN / EXISTS: NULL keys match nothing; an empty set is the
			// impossible filter IN (NULL) maybeSemiJoin uses.
			set.HasNull = set.Len() == 0
			in = expr.NewIn(key, set, false)
			conj = in
		case set.Len() == 0 && !(tf.NullAware() && set.HasNull):
			// NOT IN / NOT EXISTS over nothing holds for every row, NULL
			// outer keys included: no conjunct.
			nodes = append(nodes, &exec.PlanNode{Op: "Subquery Key Set", Notes: []string{"predicate holds for every row"}, Children: []*exec.PlanNode{subNode}})
			continue
		case tf.NullAware():
			// NOT IN: a NULL in the set makes every non-match unknown.
			in = expr.NewIn(key, set, true)
			conj = in
		default:
			// NOT EXISTS: a NULL outer key matches no inner row.
			set.HasNull = false
			in = expr.NewIn(expr.Clone(key), set, true)
			conj = expr.Bin(expr.OpOr, &expr.IsNull{E: key}, in)
		}
		p.addKeySet(pool, conj, in.Len())
		nodes = append(nodes, exec.Node("Subquery Key Set:", planSQL(conj), in.Len(), subNode))
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
				p.addKeySet(pool, derived, in.Len())
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

// planSQL renders a predicate for EXPLAIN and plan notes: a list or key set
// of more than 8 elements prints as its size.
func planSQL(e expr.Expr) string { return elideLists(e).SQL() }

func elideLists(e expr.Expr) expr.Expr {
	return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
		in, ok := n.(*expr.In)
		if !ok || in.Len() <= 8 {
			return nil
		}
		size := expr.Col(fmt.Sprintf("<%d values>", in.Len()))
		return &expr.In{E: in.E, List: []expr.Expr{size}, Negate: in.Negate}
	})
}

// applyTransform runs one subquery predicate placeSubqueries left alone as
// a semi/anti hash join on top of the block's relation: its rows (batches
// stay batches) probe the subquery's rows.
func (p *planner) applyTransform(in exec.Rel, root *exec.PlanNode, tf sqlparse.SubqueryPredicate) (exec.Rel, *exec.PlanNode, error) {
	kind, op, detail := exec.JoinSemi, "Semi Join", "(IN/EXISTS subquery)"
	if tf.Anti {
		kind, op, detail = exec.JoinAnti, "Anti Join", "(NOT IN/NOT EXISTS subquery)"
	}
	if tf.NullAware() {
		kind = exec.JoinAntiNullAware
	}

	outerKeys, subSel, err := exec.Decorrelate(tf, in.Schema, p.schemaOf)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	if len(outerKeys) == 0 {
		holds, err := exec.ExistsHolds(tf, subSel, p.runNested)
		if err != nil {
			return exec.Rel{}, nil, err
		}
		if holds {
			return in, exec.Node("Exists(const true)", "", in.Len(), root), nil
		}
		return exec.Rel{Schema: in.Schema}, exec.Node("Exists(const false)", "", 0, root), nil
	}
	sub, subNode, err := p.blockRel(subSel)
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
	out, _, err := exec.HashJoin(p.ctx, p.e.pool, p.width, 0, p.stats, kind,
		in, sub, leftKeys, rightKeys, nil)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	if tf.Outer == nil {
		detail += " (decorrelated)"
	}
	return out, exec.Node(op, detail, out.Len(), root, subNode), nil
}

// schemaOf is the engine's exec.SchemaOf: a FROM table's schema from its
// leaf, a virtual function's from the catalog.
func (p *planner) schemaOf(te sqlparse.TableExpr) (*value.Schema, error) {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		l, err := p.leafOf(t)
		if err != nil {
			return nil, err
		}
		return l.schema, nil
	case *sqlparse.TableFuncRef:
		if vf, ok := p.e.cat.VirtualFunction(t.Name); ok {
			return vf.Returns.Qualify(t.Binding()), nil
		}
		return nil, fmt.Errorf("table function %s not found", t.Name)
	}
	return nil, fmt.Errorf("unsupported FROM element %T", te)
}
