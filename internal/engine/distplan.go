package engine

import (
	"fmt"

	"hana/internal/dist"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
)

// renderConjs renders pushed conjuncts as one shippable predicate ("" =
// none). The worker re-parses and re-binds it against the same qualified
// schema, the round-trip the federation layer already uses.
func renderConjs(conjs []expr.Expr) string {
	if len(conjs) == 0 {
		return ""
	}
	return expr.And(expr.CloneAll(conjs)...).SQL()
}

// sqlOf renders each expression as a fragment ships it.
func sqlOf(es []expr.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.SQL()
	}
	return out
}

// shippedFilter is the plan attribute naming the predicate a fragment
// carries.
func shippedFilter(conjs []expr.Expr) []string {
	if len(conjs) == 0 {
		return nil
	}
	return []string{"shipped filter: " + planSQL(expr.And(conjs...))}
}

// shards notes the fleet a sharded node ran on.
func (p *planner) shards() string { return fmt.Sprintf("%d shards", p.e.dist.topo.Shards) }

// distGather points a fragment template (its Agg or Join, if any) at a
// pending sharded scan, fans it out through the coordinator and folds the
// run's statistics into the statement counters. Its conjuncts ship inside
// the fragment.
func (p *planner) distGather(ps *pendingScan, tmpl *dist.Fragment) (*dist.GatherResult, error) {
	l := ps.leaves[0]
	tmpl.Table = distKey(l.t.meta.Name)
	tmpl.Binding = l.binding
	tmpl.Where = renderConjs(ps.conjs)
	tmpl.Needed = p.needed.Mask(l.t.meta.Schema)
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
	m.DistRowsMerged.Add(int64(res.Len()))
	p.stats.RowsScanned.Add(res.Scanned)
	if res.Failovers > 0 {
		p.plan.Note("dist: %d replica failover(s)", res.Failovers)
	}
	return res, nil
}

// realizeDist executes the shard scan fragment and takes the merged stream
// as the relation's batches. Rows arrive tagged with their global scan
// sequence and the coordinator merge restores ascending order, so the result
// is byte-identical to the single-node partition scan.
func (p *planner) realizeDist(r *relation) error {
	ps := r.pend
	res, err := p.distGather(ps, &dist.Fragment{})
	if err != nil {
		return err
	}
	r.node = &exec.PlanNode{Op: "Dist Scan", Object: ps.leaves[0].name, Rows: res.Len(), Notes: []string{p.shards()}, Attrs: shippedFilter(ps.conjs)}
	for _, b := range res.Batches {
		b.Schema = r.Schema
	}
	r.Rel = exec.Rel{Schema: r.Schema, Batches: res.Batches}
	if len(ps.coord) > 0 {
		pred, err := expr.BindClone(expr.And(ps.coord...), r.Schema)
		if err != nil {
			return err
		}
		if r.Rel, err = exec.Filter(r.Rel, pred); err != nil {
			return err
		}
		r.node.Children = []*exec.PlanNode{exec.Node("coordinator filter:", planSQL(pred), r.Len())}
	}
	return nil
}

// tryDistAggregate plans a single-table aggregate block as a distributed
// aggregation: each shard folds its rows into per-group partials, the
// coordinator merges them, and only the block's finishing stages run
// locally: the returned block's, over the merged aggregate output. Partial
// states merge exactly (exact sums included), so the result is the
// single-node one; subs are the plans of the block's subqueries. An
// aggregate dist.DistributableAgg does not admit returns no block and the
// block falls back to gather-then-aggregate.
func (p *planner) tryDistAggregate(sel *sqlparse.SelectStmt, rel *relation, subs []*exec.PlanNode) (*block, error) {
	ps := rel.pend
	blk, err := exec.AnalyzeBlock(sel, rel.Schema)
	if err != nil || !blk.Aggregates() {
		return nil, err
	}
	frag := &dist.AggFragment{GroupBy: sqlOf(blk.GroupBy), Aggs: make([]dist.AggCall, len(blk.Aggs))}
	for i, a := range blk.Aggs {
		call := dist.AggCall{Func: a.Func, Distinct: a.Distinct}
		mergeable := dist.DistributableAgg(a.Func)
		if a.Arg == nil {
			mergeable = mergeable && a.Func == "COUNT"
		} else {
			call.Arg = a.Arg.SQL()
		}
		if !mergeable {
			p.plan.Note("dist: aggregate %s does not ship, gathering rows instead", a.Func)
			return nil, nil
		}
		frag.Aggs[i] = call
	}

	res, err := p.distGather(ps, &dist.Fragment{Agg: frag})
	if err != nil {
		return nil, err
	}
	// Finalize the merged partials into the aggregate's output; group order
	// is the serial first-seen order (merged groups sort by First).
	in, err := res.Partial.Finalize(blk.AggSchema, blk.Aggs, len(blk.GroupBy) == 0)
	if err != nil {
		return nil, err
	}
	n := &exec.PlanNode{Op: "Dist Hash Aggregate", Object: ps.leaves[0].name, Rows: in.Len(),
		Notes: []string{fmt.Sprintf("%d group cols", len(blk.GroupBy)), p.shards()}, Attrs: shippedFilter(ps.conjs)}
	return &block{in: in, blk: blk, node: n, subs: subs}, nil
}

// distBroadcastJoin executes probe-side-sharded ⋈ broadcast-build-side on
// the workers: every worker builds the same hash table in the same build
// row order, probes its shard's rows, and the coordinator merge restores
// probe-input order — the serial hash join's exact emission order. Returns
// nil (no error) when the join should fall back to gather + local join.
func (p *planner) distBroadcastJoin(l, r *relation, leftKeys, rightKeys, residual []expr.Expr) (*relation, error) {
	if float64(r.Len()) > float64(p.e.semiJoinThreshold()) {
		p.plan.Note("dist: build side %d rows > threshold %d, gathering probe side", r.Len(), p.e.semiJoinThreshold())
		return nil, nil
	}
	ps := l.pend
	if len(ps.coord) > 0 {
		// The probe side's coordinator filter runs on gathered rows.
		return nil, nil
	}
	res, err := p.distGather(ps, &dist.Fragment{Join: &dist.JoinFragment{
		ProbeKeys: sqlOf(leftKeys),
		BuildKeys: sqlOf(rightKeys),
		Residual:  renderConjs(residual),
		BuildCols: r.Schema.Cols,
		BuildRows: r.AllRows(),
	}})
	if err != nil {
		return nil, err
	}
	out := &relation{Rel: exec.Rel{Schema: l.Schema.Concat(r.Schema), Batches: res.Batches}, est: float64(res.Len())}
	for _, b := range res.Batches {
		b.Schema = out.Schema
	}
	probe := &exec.PlanNode{Op: "Dist Scan", Object: ps.leaves[0].name, Rows: -1, Notes: []string{"probe", "sharded"}, Attrs: shippedFilter(ps.conjs)}
	out.node = exec.Node("Dist Broadcast Hash Join", "(INNER) on "+keySQL(leftKeys, rightKeys), res.Len(), probe, r.node)
	out.node.Notes = []string{p.shards()}
	return out, nil
}
