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
	return expr.And(expr.CloneAll(conjs)...).SQL()
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
		pred, err := expr.BindClone(expr.And(dr.coord...), r.Schema)
		if err != nil {
			return err
		}
		if res.Rows, err = keepTruthy(res.Rows, pred); err != nil {
			return err
		}
		r.node.children = append(r.node.children, node(fmt.Sprintf("coordinator filter: %s (%d rows)", planSQL(pred), len(res.Rows))))
	}
	r.Rows = res.Rows
	r.local = true
	r.dst = nil
	r.est = float64(len(r.Rows))
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
// the coordinator unions them, and only the block's finishing stages run
// locally: the returned Block's Finish over the returned aggregate output.
// Only the exactly-mergeable subset ships — COUNT, MIN, MAX, and SUM over
// integer arguments (each with optional DISTINCT). Anything else returns a
// nil Block and the block falls back to gather-then-aggregate, which is
// byte-identical anyway.
func (p *planner) tryDistAggregate(sel *sqlparse.SelectStmt, rel *relation) (exec.Rel, *exec.Block, *planNode, error) {
	dr := rel.dst
	blk, err := exec.AnalyzeBlock(sel, rel.Schema)
	if err != nil || !blk.Aggregates() {
		return exec.Rel{}, nil, nil, err
	}
	groups := len(blk.GroupBy)
	frag := &dist.AggFragment{GroupBy: make([]string, groups), Aggs: make([]dist.AggCall, len(blk.Aggs))}
	for i, g := range blk.GroupBy {
		frag.GroupBy[i] = g.SQL()
	}
	for i, a := range blk.Aggs {
		call := dist.AggCall{Func: a.Func, Distinct: a.Distinct}
		mergeable := dist.DistributableAgg(a.Func)
		if a.Arg == nil {
			mergeable = mergeable && a.Func == "COUNT"
		} else {
			call.Arg = a.Arg.SQL()
			// Float SUM is order-sensitive; keep it on the serial path so
			// summation order stays identical to single-node execution.
			mergeable = mergeable && (a.Func != "SUM" || blk.AggSchema.Cols[groups+i].Kind == value.KindInt)
		}
		if !mergeable {
			p.plan.Note("dist: aggregate outside mergeable subset, gathering rows instead")
			return exec.Rel{}, nil, nil, nil
		}
		frag.Aggs[i] = call
	}

	res, err := p.distGather(dr, &dist.Fragment{Agg: frag})
	if err != nil {
		return exec.Rel{}, nil, nil, err
	}
	// Finalize the merged partials into aggregate output rows; group order
	// is the serial first-seen order (merged groups sort by First).
	rows, err := res.Partial.Rows(blk.Aggs, groups == 0)
	if err != nil {
		return exec.Rel{}, nil, nil, err
	}
	root := node(fmt.Sprintf("Dist Hash Aggregate [%s] (%d group cols, %d groups, %d shards)",
		dr.name, groups, len(rows), p.e.dist.topo.Shards), shippedFilter(dr.conjs)...)
	return exec.Rel{Schema: blk.AggSchema, Rows: rows}, blk, finishNodes(sel, blk, root), nil
}

// distBroadcastJoin executes probe-side-sharded ⋈ broadcast-build-side on
// the workers: every worker builds the same hash table in the same build
// row order, probes its shard's rows, and the coordinator merge restores
// probe-input order — the serial hash join's exact emission order. Returns
// nil (no error) when the join should fall back to gather + local join.
func (p *planner) distBroadcastJoin(l, r *relation, leftKeys, rightKeys, residual []expr.Expr, combined *value.Schema) (*relation, error) {
	if float64(r.Len()) > float64(p.e.semiJoinThreshold()) {
		p.plan.Note("dist: build side %d rows > threshold %d, gathering probe side", r.Len(), p.e.semiJoinThreshold())
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
		BuildCols: r.Schema.Cols,
		BuildRows: r.AllRows(),
	}})
	if err != nil {
		return nil, err
	}
	out := &relation{Rel: exec.Rel{Schema: combined, Rows: res.Rows}, local: true}
	out.est = float64(len(out.Rows))
	label := fmt.Sprintf("Dist Broadcast Hash Join (INNER) on %s (%d rows, %d shards)",
		keySQL(leftKeys, rightKeys), len(out.Rows), p.e.dist.topo.Shards)
	probeNode := node(fmt.Sprintf("Dist Scan [%s] (probe, sharded)", dr.name), shippedFilter(dr.conjs)...)
	out.node = node(label, probeNode, r.node)
	return out, nil
}
