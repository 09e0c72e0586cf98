package engine

import (
	"fmt"

	"hana/internal/dist"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// distRel is a pending scan over the worker fleet's shard replicas of one
// hot table. Conjuncts attach unrealized so they ship inside the fragment;
// realization fans the fragment out to every shard and merges the streams
// back into the exact serial row order.
type distRel struct {
	t       *storedTable
	name    string
	binding string
	conjs   []expr.Expr
	// coord are covered conjuncts that stay off the wire — subquery key
	// sets longer than SemiJoinThreshold — and filter the gathered rows at
	// the coordinator instead.
	coord []expr.Expr
}

// renderConjs renders pushed conjuncts as one shippable predicate ("" =
// none). The worker re-parses and re-binds it against the same qualified
// schema, the round-trip the federation layer already uses.
func renderConjs(conjs []expr.Expr) string {
	if len(conjs) == 0 {
		return ""
	}
	return expr.And(cloneAll(conjs)...).SQL()
}

// shippedFilter is the plan child naming the predicate a fragment carries.
func shippedFilter(conjs []expr.Expr) []*planNode {
	if len(conjs) == 0 {
		return nil
	}
	return []*planNode{node("shipped filter: " + planSQL(expr.And(conjs...)))}
}

// distGather points a fragment template (its Agg or Join, if any) at the
// pending shard scan, fans it out through the coordinator and folds the
// run's statistics into the statement counters.
func (p *planner) distGather(dr *distRel, tmpl *dist.Fragment) (*dist.GatherResult, error) {
	tmpl.Table = distKey(dr.t.meta.Name)
	tmpl.Binding = dr.binding
	tmpl.Where = renderConjs(dr.conjs)
	tmpl.Needed = neededOrds(p.needed, dr.t.meta.Schema)
	tmpl.Snapshot = p.snapshot
	tmpl.Width = p.width
	res, err := p.e.dist.coord.Gather(p.ctx, tmpl, p.fanout)
	if err != nil {
		return nil, err
	}
	m := &p.e.Metrics
	m.DistQueries.Inc()
	m.DistFragments.Add(int64(res.Fragments))
	m.DistFailovers.Add(int64(res.Failovers))
	m.DistRowsMerged.Add(int64(len(res.Rows)))
	p.stats.RowsScanned.Add(res.Scanned)
	if res.Failovers > 0 {
		p.plan.Note("dist: %d replica failover(s)", res.Failovers)
	}
	return res, nil
}

// realizeDist executes the shard scan fragment and materializes the merged
// stream. Rows arrive tagged with their global scan sequence and the
// coordinator merge restores ascending order, so the result is
// byte-identical to the single-node partition scan.
func (p *planner) realizeDist(r *relation) error {
	dr := r.dst
	res, err := p.distGather(dr, &dist.Fragment{})
	if err != nil {
		return err
	}
	shards := p.e.dist.topo.Shards
	label := fmt.Sprintf("Dist Scan [%s] (%d rows, %d shards)", dr.name, len(res.Rows), shards)
	r.node = node(label, shippedFilter(dr.conjs)...)
	if len(dr.coord) > 0 {
		pred, err := bindToSchema(expr.And(dr.coord...), r.schema)
		if err != nil {
			return err
		}
		if res.Rows, err = keepTruthy(res.Rows, pred); err != nil {
			return err
		}
		r.node.children = append(r.node.children, node(fmt.Sprintf("coordinator filter: %s (%d rows)", planSQL(pred), len(res.Rows))))
	}
	r.rows = res.Rows
	r.local = true
	r.dst = nil
	r.est = float64(len(r.rows))
	return nil
}

// keepTruthy filters rows in place to those pred holds for.
func keepTruthy(rows []value.Row, pred expr.Expr) ([]value.Row, error) {
	kept := rows[:0]
	for _, r := range rows {
		ok, err := expr.Truthy(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, nil
}

// tryDistAggregate plans a single-table aggregate block as a distributed
// aggregation: each shard folds its rows into mergeable per-group partials,
// the coordinator unions them, and only the finishing stages run locally.
// Only the exactly-mergeable subset ships — COUNT, MIN, MAX, and SUM over
// integer arguments (each with optional DISTINCT). Anything else returns
// ok=false and the block falls back to gather-then-aggregate, which is
// byte-identical anyway.
func (p *planner) tryDistAggregate(sel *sqlparse.SelectStmt, rel *relation) (exec.Iter, *planNode, bool, error) {
	dr := rel.dst
	inSchema := rel.schema
	items, err := expandStars(sel.Items, inSchema)
	if err != nil {
		return nil, nil, false, err
	}
	needAgg := len(sel.GroupBy) > 0
	if !needAgg {
		for _, item := range items {
			if expr.HasAggregate(item.Expr) {
				needAgg = true
				break
			}
		}
		if sel.Having != nil && expr.HasAggregate(sel.Having) {
			needAgg = true
		}
	}
	if !needAgg {
		return nil, nil, false, nil
	}

	having := sel.Having
	orderExprs := make([]expr.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		orderExprs[i] = o.Expr
	}

	// Group keys: names and kinds exactly as the serial aggregate derives
	// them, rendered SQL for the worker side.
	groupNames := make([]string, len(sel.GroupBy))
	groupSQLs := make([]string, len(sel.GroupBy))
	outSchema := &value.Schema{}
	for i, g := range sel.GroupBy {
		if _, err := bindToSchema(g, inSchema); err != nil {
			// The serial path would fail identically; let it produce the error.
			return nil, nil, false, nil
		}
		groupNames[i] = exprName(g)
		groupSQLs[i] = g.SQL()
		outSchema.Cols = append(outSchema.Cols, value.Column{
			Name: groupNames[i], Kind: inferKind(g, inSchema), Nullable: true,
		})
	}

	// Collect distinct aggregate calls across items, having and order by,
	// rejecting the block if any falls outside the mergeable subset.
	var calls []dist.AggCall
	aggCols := map[string]string{}
	shippable := true
	collect := func(e expr.Expr) {
		if e == nil || !shippable {
			return
		}
		expr.Walk(e, func(n expr.Expr) bool {
			f, ok := n.(*expr.Func)
			if !ok || !f.IsAggregate() {
				return true
			}
			key := f.SQL()
			if _, seen := aggCols[key]; seen {
				return false
			}
			if !dist.DistributableAgg(f.Name) {
				shippable = false
				return false
			}
			call := dist.AggCall{Func: f.Name, Distinct: f.Distinct}
			if f.Star {
				if f.Name != "COUNT" {
					shippable = false
					return false
				}
			} else {
				if len(f.Args) != 1 {
					shippable = false
					return false
				}
				// Float SUM is order-sensitive; keep it on the serial path so
				// summation order stays identical to single-node execution.
				if f.Name == "SUM" && inferKind(f.Args[0], inSchema) != value.KindInt {
					shippable = false
					return false
				}
				if _, err := bindToSchema(f.Args[0], inSchema); err != nil {
					shippable = false
					return false
				}
				call.Arg = f.Args[0].SQL()
			}
			aggCols[key] = key
			calls = append(calls, call)
			outSchema.Cols = append(outSchema.Cols, value.Column{
				Name: key, Kind: inferKind(f, inSchema), Nullable: true,
			})
			return false
		})
	}
	for _, item := range items {
		collect(item.Expr)
	}
	collect(having)
	for _, oe := range orderExprs {
		collect(oe)
	}
	if !shippable {
		p.plan.Note("dist: aggregate outside mergeable subset, gathering rows instead")
		return nil, nil, false, nil
	}

	res, err := p.distGather(dr, &dist.Fragment{Agg: &dist.AggFragment{GroupBy: groupSQLs, Aggs: calls}})
	if err != nil {
		return nil, nil, false, err
	}

	// Finalize the merged partials into aggregate output rows; group order
	// is the serial first-seen order (merged groups sort by First).
	specs := make([]exec.AggSpec, len(calls))
	for i, c := range calls {
		specs[i] = exec.AggSpec{Func: c.Func, Distinct: c.Distinct}
	}
	rows, err := res.Partial.Rows(specs, len(sel.GroupBy) == 0)
	if err != nil {
		return nil, nil, false, err
	}

	shards := p.e.dist.topo.Shards
	root := node(fmt.Sprintf("Dist Hash Aggregate [%s] (%d group cols, %d groups, %d shards)",
		dr.name, len(sel.GroupBy), len(rows), shards), shippedFilter(dr.conjs)...)

	// Rewrite items/having/order over the aggregate output, exactly as the
	// serial aggregate does, then share its finishing stages.
	groupSQL := map[string]string{}
	for i, g := range sel.GroupBy {
		groupSQL[g.SQL()] = groupNames[i]
	}
	rewrite := func(e expr.Expr) expr.Expr {
		if e == nil {
			return nil
		}
		return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if f, ok := n.(*expr.Func); ok && f.IsAggregate() {
				return expr.Col(aggCols[f.SQL()])
			}
			if name, ok := groupSQL[n.SQL()]; ok {
				return expr.Col(name)
			}
			return nil
		})
	}
	outItems := make([]sqlparse.SelectItem, len(items))
	for i, item := range items {
		outItems[i] = sqlparse.SelectItem{Expr: rewrite(item.Expr), Alias: item.Alias}
	}
	outOrder := make([]expr.Expr, len(orderExprs))
	for i, oe := range orderExprs {
		outOrder[i] = rewrite(oe)
	}

	it := exec.NewSlice(outSchema, rows)
	fit, froot, err := p.finishAfterAgg(sel, it, root, outItems, rewrite(having), outOrder)
	if err != nil {
		return nil, nil, false, err
	}
	return fit, froot, true, nil
}

// distBroadcastJoin executes probe-side-sharded ⋈ broadcast-build-side on
// the workers: every worker builds the same hash table in the same build
// row order, probes its shard's rows, and the coordinator merge restores
// probe-input order — the serial hash join's exact emission order. Returns
// nil (no error) when the join should fall back to gather + local join.
func (p *planner) distBroadcastJoin(l, r *relation, leftKeys, rightKeys, residual []expr.Expr, combined *value.Schema) (*relation, error) {
	if float64(r.rowCount()) > float64(p.e.semiJoinThreshold()) {
		p.plan.Note("dist: build side %d rows > threshold %d, gathering probe side", r.rowCount(), p.e.semiJoinThreshold())
		return nil, nil
	}
	dr := l.dst
	if len(dr.coord) > 0 {
		// The probe side's coordinator filter runs on gathered rows.
		return nil, nil
	}
	probeSQLs := make([]string, len(leftKeys))
	for i, k := range leftKeys {
		probeSQLs[i] = k.SQL()
	}
	buildSQLs := make([]string, len(rightKeys))
	for i, k := range rightKeys {
		buildSQLs[i] = k.SQL()
	}
	res, err := p.distGather(dr, &dist.Fragment{Join: &dist.JoinFragment{
		ProbeKeys: probeSQLs,
		BuildKeys: buildSQLs,
		Residual:  renderConjs(residual),
		BuildCols: r.schema.Cols,
		BuildRows: r.rowsOf(),
	}})
	if err != nil {
		return nil, err
	}
	out := &relation{schema: combined, local: true, rows: res.Rows}
	out.est = float64(len(out.rows))
	label := fmt.Sprintf("Dist Broadcast Hash Join (INNER) on %s (%d rows, %d shards)",
		keySQL(leftKeys, rightKeys), len(out.rows), p.e.dist.topo.Shards)
	probeNode := node(fmt.Sprintf("Dist Scan [%s] (probe, sharded)", dr.name), shippedFilter(dr.conjs)...)
	out.node = node(label, probeNode, r.node)
	return out, nil
}
