package engine

import (
	"context"
	"fmt"
	"strings"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/fed"
	"hana/internal/obs"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

// planner plans and executes one query block under a snapshot. ctx, width
// and stats thread the statement's cancellation scope, parallelism cap and
// executor counters into every morsel dispatch the plan makes. plan is the
// trace span that accumulates strategy decisions — chosen federated
// strategies and rejected alternatives with their cost estimates — as
// notes (nil when the statement is untraced).
type planner struct {
	e        *Engine
	snapshot uint64
	tid      uint64
	useCache bool

	ctx   context.Context
	width int
	stats *exec.Counters
	plan  *obs.Span

	// needed is the statement-wide referenced column-name set driving late
	// materialization (nil = all columns).
	needed map[string]bool

	// localOnly pins the statement to the engine node (WithLocalOnly);
	// fanout caps concurrent shard fragments (WithShards, 0 = all).
	localOnly bool
	fanout    int

	// keySets maps each subquery key-set conjunct placeSubqueries put into
	// a pool to its number of keys.
	keySets map[expr.Expr]int
}

// newPlanner sets up the reader a statement runs as: tx's snapshot and
// writes (nil = the last committed state), ctx and width for its morsel
// dispatches. Readers that only scan — DML target collection, aging,
// statistics — pass no SELECT.
func (e *Engine) newPlanner(ctx context.Context, tx *txn.Txn, sel *sqlparse.SelectStmt, width int) *planner {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &planner{e: e, ctx: ctx, width: width, stats: &exec.Counters{}}
	if o, ok := ctx.Value(distOptKey{}).(distOpt); ok {
		p.localOnly = o.localOnly
		p.fanout = o.fanout
	}
	if tx != nil {
		p.snapshot = tx.Snapshot
		p.tid = tx.TID
	} else {
		p.snapshot = e.mgr.LastCID()
	}
	if sel != nil {
		p.useCache = sel.HasHint("USE_REMOTE_CACHE")
		p.needed = collectNeeded(sel)
	}
	return p
}

// execStats snapshots the planner's executor counters for the Result.
func (p *planner) execStats() ExecStats {
	return ExecStats{
		RowsScanned: p.stats.RowsScanned.Load(),
		Morsels:     p.stats.Morsels.Load(),
		Workers:     p.stats.Workers.Load(),
	}
}

// runBlock plans and executes one top-level SELECT under plan/exec trace
// spans: "plan" covers planning and the eager realization work it performs
// (remote fetches, scans, joins, the aggregate — this planner materializes
// during planning) and records the strategy decisions; "exec" covers the
// block's back end, Block.Finish, and carries the executor counters.
func (p *planner) runBlock(ctx context.Context, sel *sqlparse.SelectStmt) (*value.Rows, *planNode, error) {
	parent := obs.SpanFrom(ctx)
	pl := parent.StartSpan("plan")
	p.plan = pl
	p.ctx = obs.ContextWithSpan(p.ctx, pl)
	in, blk, root, err := p.planQueryBlock(sel)
	pl.End()
	if err != nil {
		return nil, nil, err
	}
	ex := parent.StartSpan("exec")
	defer ex.End()
	rows, err := blk.Finish(in)
	if err != nil {
		return nil, nil, err
	}
	st := p.execStats()
	ex.SetAttrInt("rows_scanned", st.RowsScanned)
	ex.SetAttrInt("morsels", st.Morsels)
	ex.SetAttrInt("workers_highwater", st.Workers)
	return rows, root, nil
}

// query plans, executes and materializes a SELECT.
func (e *Engine) query(ctx context.Context, tx *txn.Txn, sel *sqlparse.SelectStmt, width int) (*Result, error) {
	p := e.newPlanner(ctx, tx, sel, width)
	rows, root, err := p.runBlock(ctx, sel)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: rows.Schema, Rows: rows.Data, Plan: root.String(), Stats: p.execStats()}, nil
}

// explain plans (and for federated parts executes the shipping decision)
// without returning data rows. EXPLAIN TRACE additionally returns the
// recorded span timeline as rows, one per span in preorder.
func (e *Engine) explain(ctx context.Context, ex *sqlparse.ExplainStmt, width int) (*Result, error) {
	p := e.newPlanner(ctx, nil, ex.Sel, width)
	// Drain to complete lazy plan annotations.
	_, root, err := p.runBlock(ctx, ex.Sel)
	if err != nil {
		return nil, err
	}
	if !ex.Trace {
		return &Result{Plan: root.String(), Message: "explained", Stats: p.execStats()}, nil
	}
	tr := obs.TraceFrom(ctx)
	rows := traceSpanRows(tr)
	return &Result{
		Schema:  rows.Schema,
		Rows:    rows.Data,
		Plan:    root.String(),
		Message: "traced",
		Stats:   p.execStats(),
		Trace:   tr,
	}, nil
}

// traceSpanRows renders a trace's span tree as rows: one per span in
// preorder with its depth, duration and attribute/note detail.
func traceSpanRows(tr *obs.QueryTrace) *value.Rows {
	out := value.NewRows(value.NewSchema(
		value.Column{Name: "trace_id", Kind: value.KindInt},
		value.Column{Name: "span", Kind: value.KindVarchar},
		value.Column{Name: "depth", Kind: value.KindInt},
		value.Column{Name: "duration_us", Kind: value.KindInt},
		value.Column{Name: "detail", Kind: value.KindVarchar},
	))
	tr.Walk(func(depth int, s *obs.Span) {
		out.Append(value.Row{
			value.NewInt(int64(tr.ID())),
			value.NewString(s.Name()),
			value.NewInt(int64(depth)),
			value.NewInt(s.Duration().Microseconds()),
			value.NewString(s.Detail()),
		})
	})
	return out
}

// planQueryBlock plans one SELECT block: whole-statement shipping when
// every referenced table lives in one remote source (§4.2 "It is even
// possible that complete queries are processed via Hive and Hadoop"),
// otherwise local planning with per-leaf pushdown. It runs everything up to
// the block's back end and returns the relation blk.Finish takes.
func (p *planner) planQueryBlock(sel *sqlparse.SelectStmt) (exec.Rel, *exec.Block, *planNode, error) {
	if in, blk, n, err := p.tryShipWhole(sel); err != nil || blk != nil {
		return in, blk, n, err
	}

	// Split WHERE into plain conjuncts and subquery predicates; the latter
	// are evaluated first and join the pool behind the plain conjuncts.
	var pool []expr.Expr
	var transforms []sqlparse.SubqueryPredicate
	for _, c := range expr.SplitConjuncts(sel.Where) {
		if tf, ok := sqlparse.AsSubqueryPredicate(c); ok {
			transforms = append(transforms, tf)
			continue
		}
		c2, err := p.inlineScalarSubqueries(c)
		if err != nil {
			return exec.Rel{}, nil, nil, err
		}
		pool = append(pool, c2)
	}
	transforms, subNodes, err := p.placeSubqueries(sel, transforms, &pool)
	if err != nil {
		return exec.Rel{}, nil, nil, err
	}

	rel, err := p.planFromExpr(sel.From, &pool)
	if err != nil {
		return exec.Rel{}, nil, nil, err
	}
	// Single distributed leaf with nothing left in the pool: try shipping
	// the aggregation itself so only per-group partials cross the exchange.
	if rel.dst != nil && len(rel.dst.coord) == 0 && len(pool) == 0 && len(transforms) == 0 {
		if in, blk, root, err := p.tryDistAggregate(sel, rel); err != nil {
			return exec.Rel{}, nil, nil, err
		} else if blk != nil {
			root.children = append(root.children, subNodes...)
			return in, blk, root, nil
		}
	}
	if err := p.realize(rel); err != nil {
		return exec.Rel{}, nil, nil, err
	}
	in := rel.Rel
	root := rel.node
	if root == nil {
		root = node("Row Source")
	}

	// Residual conjuncts that never found a single home (cross-relation
	// non-equi predicates).
	if len(pool) > 0 {
		pred, err := expr.BindClone(expr.And(expr.CloneAll(pool)...), in.Schema)
		if err != nil {
			return exec.Rel{}, nil, nil, err
		}
		if in, err = exec.Filter(in, pred); err != nil {
			return exec.Rel{}, nil, nil, err
		}
		root = node("Filter: "+planSQL(pred), root)
	}

	// The subquery predicates placeSubqueries left alone become semi/anti
	// joins on top.
	for _, tf := range transforms {
		var err error
		in, root, err = p.applyTransform(in, root, tf)
		if err != nil {
			return exec.Rel{}, nil, nil, err
		}
	}

	blk, err := exec.AnalyzeBlock(sel, in.Schema)
	if err != nil {
		return exec.Rel{}, nil, nil, err
	}
	if blk.Aggregates() {
		agg := &exec.ParallelHashAggregate{
			In: in, GroupBy: blk.GroupBy, Aggs: blk.Aggs, Out: blk.AggSchema,
			Pool: p.e.pool, Ctx: p.ctx, Width: p.width, Stats: p.stats,
		}
		if in, err = agg.Run(); err != nil {
			return exec.Rel{}, nil, nil, err
		}
		root = node(fmt.Sprintf("Hash Aggregate (%d group cols, groups)", len(blk.GroupBy)), root)
	}
	root = finishNodes(sel, blk, root)
	root.children = append(root.children, subNodes...)
	return in, blk, root, nil
}

// finishNodes names the stages Block.Finish runs, above root.
func finishNodes(sel *sqlparse.SelectStmt, blk *exec.Block, root *planNode) *planNode {
	if blk.Having != nil {
		root = node("Having: "+blk.Having.SQL(), root)
	}
	root = node("Project: "+strings.Join(blk.Out.Names(), ", "), root)
	if sel.Distinct {
		root = node("Distinct", root)
	}
	return orderLimitNodes(sel, root)
}

// orderLimitNodes names the ORDER BY and LIMIT stages of Block.Finish, the
// only ones a statement shipped whole leaves to it.
func orderLimitNodes(sel *sqlparse.SelectStmt, root *planNode) *planNode {
	if len(sel.OrderBy) > 0 {
		root = node("Sort", root)
	}
	if sel.Limit >= 0 {
		root = node(fmt.Sprintf("Limit %d", sel.Limit), root)
	}
	return root
}

// planFromExpr plans a FROM tree. Inner/cross joins are flattened with the
// conjunct pool driving join keys and pushdown; left outer joins keep their
// structure.
func (p *planner) planFromExpr(te sqlparse.TableExpr, pool *[]expr.Expr) (*relation, error) {
	if te == nil {
		// SELECT without FROM: one empty row.
		return &relation{
			Rel:   exec.Rel{Schema: value.NewSchema(), Rows: []value.Row{{}}},
			local: true,
			est:   1,
			node:  node("Single Row"),
		}, nil
	}
	switch t := te.(type) {
	case *sqlparse.JoinExpr:
		switch t.Type {
		case sqlparse.JoinInner, sqlparse.JoinCross:
			if t.On != nil {
				*pool = append(*pool, expr.SplitConjuncts(t.On)...)
			}
			l, err := p.planFromExpr(t.L, pool)
			if err != nil {
				return nil, err
			}
			r, err := p.planFromExpr(t.R, pool)
			if err != nil {
				return nil, err
			}
			return p.joinRelations(l, r, pool)
		case sqlparse.JoinLeft:
			l, err := p.planFromExpr(t.L, pool)
			if err != nil {
				return nil, err
			}
			var empty []expr.Expr
			r, err := p.planFromExpr(t.R, &empty)
			if err != nil {
				return nil, err
			}
			return p.leftOuterJoin(l, r, t.On)
		default:
			return nil, fmt.Errorf("%s JOIN is not supported", t.Type)
		}
	case *sqlparse.TableRef:
		return p.planTableLeaf(t, pool)
	case *sqlparse.SubqueryTable:
		res, _, err := p.blockRows(t.Sel)
		if err != nil {
			return nil, err
		}
		schema := res.Schema.Qualify(t.Alias)
		return &relation{
			Rel: exec.Rel{Schema: schema, Rows: res.Data}, local: true,
			est:  float64(len(res.Data)),
			node: node(fmt.Sprintf("Derived Table %s (%d rows)", t.Alias, len(res.Data))),
		}, nil
	case *sqlparse.TableFuncRef:
		return p.planTableFunc(t)
	}
	return nil, fmt.Errorf("unsupported FROM element %T", te)
}

// planTableLeaf builds a relation for a stored or virtual table, attaching
// pool conjuncts the leaf alone can evaluate.
func (p *planner) planTableLeaf(t *sqlparse.TableRef, pool *[]expr.Expr) (*relation, error) {
	name := t.Name()
	binding := t.Binding()

	if vt, ok := p.e.cat.VirtualTable(name); ok {
		a, err := p.e.adapter(vt.Source)
		if err != nil {
			return nil, err
		}
		schema := vt.Schema.Qualify(binding)
		rel := &relation{
			Rel: exec.Rel{Schema: schema},
			remote: &remoteRel{
				source:  vt.Source,
				adapter: a,
				tables:  []remoteTable{{path: vt.Remote, binding: binding, schema: schema}},
			},
		}
		base := int64(100000)
		if st, ok := a.TableStats(vt.Remote); ok {
			base = st.RowCount
		}
		conjs := takeCovered(rel, pool)
		for _, c := range conjs {
			rel.addConj(c)
		}
		rel.est = estimateLeaf(nil, base, conjs)
		return rel, nil
	}

	st, err := p.e.table(name)
	if err != nil {
		return nil, err
	}
	meta := st.meta
	schema := meta.Schema.Qualify(binding)

	// Extended / hybrid tables stay unrealized so the planner can choose a
	// federated strategy (remote scan, semijoin, union plan).
	if st.firstCold() != nil {
		rel := &relation{Rel: exec.Rel{Schema: schema}, ext: &extRel{t: st}}
		conjs := takeCovered(rel, pool)
		for _, c := range conjs {
			rel.addConj(c)
		}
		rel.est = estimateLeaf(meta, approxRowCount(st), conjs)
		return rel, nil
	}

	// Distributed leaf: the table is mirrored hash-sharded on the worker
	// fleet, so the scan (and any aggregate or broadcast join above it)
	// can execute as shipped fragments. Explicit-transaction reads stay
	// local — workers only hold committed state, and the local path sees
	// the transaction's own uncommitted rows.
	if p.tid == 0 && !p.localOnly && p.e.distFor(st) != nil {
		rel := &relation{Rel: exec.Rel{Schema: schema}, dst: &distRel{t: st, name: name, binding: binding}}
		conjs := takeCovered(rel, pool)
		for _, c := range conjs {
			// A subquery key set ships inside the fragment up to the bound
			// the broadcast join uses; a longer one filters the gathered
			// rows at the coordinator.
			if n := p.keySets[c]; int64(n) > p.e.semiJoinThreshold() {
				rel.dst.coord = append(rel.dst.coord, c)
				p.plan.Note("dist: key set of %d > threshold %d, filtering %s at the coordinator", n, p.e.semiJoinThreshold(), name)
				continue
			}
			rel.addConj(c)
		}
		rel.est = estimateLeaf(meta, approxRowCount(st), conjs)
		return rel, nil
	}

	// Pure in-memory leaf: morsel-parallel scan over the partitions' row
	// ranges, with covered conjuncts filtered inside each morsel.
	rel := &relation{Rel: exec.Rel{Schema: schema}, local: true}
	conjs := takeCovered(rel, pool)
	var pred expr.Expr
	if len(conjs) > 0 {
		var err error
		pred, err = expr.BindClone(expr.And(expr.CloneAll(conjs)...), schema)
		if err != nil {
			return nil, err
		}
	}
	sc, err := p.scan(st, st.parts, schema, pred, neededOrds(p.needed, meta.Schema))
	if err != nil {
		return nil, err
	}
	rel.Batches = sc.batches
	kept := rel.Len()
	rel.node = node(fmt.Sprintf("%s Scan [%s] (%d rows, vectorized)", storeLabel(st), name, kept))
	if pred != nil {
		rel.node.children = append(rel.node.children, node("filter: "+planSQL(pred)))
	}
	rel.est = float64(kept)
	return rel, nil
}

func storeLabel(st *storedTable) string {
	if len(st.parts) > 0 && st.parts[0].row != nil {
		return "Row"
	}
	return "Column"
}

func approxRowCount(st *storedTable) int64 {
	if st.meta.Stats.RowCount > 0 {
		return st.meta.Stats.RowCount
	}
	var n int64
	for _, p := range st.parts {
		n += int64(p.numRows())
	}
	return n
}

// planTableFunc invokes a local table provider (HANA join over ESP window
// state) or a virtual function (§4.3) on its remote source.
func (p *planner) planTableFunc(t *sqlparse.TableFuncRef) (*relation, error) {
	if rows, ok, err := p.e.views.Rows(t.Name); ok || err != nil {
		if err != nil {
			return nil, fmt.Errorf("table provider %s: %w", t.Name, err)
		}
		schema := rows.Schema.Qualify(t.Binding())
		return &relation{
			Rel: exec.Rel{Schema: schema, Rows: rows.Data}, local: true,
			est:  float64(rows.Len()),
			node: node(fmt.Sprintf("Table Provider %s (%d rows)", t.Name, rows.Len())),
		}, nil
	}
	vf, ok := p.e.cat.VirtualFunction(t.Name)
	if !ok {
		return nil, fmt.Errorf("table function %s not found", t.Name)
	}
	a, err := p.e.adapter(vf.Source)
	if err != nil {
		return nil, err
	}
	fa, ok := a.(fed.FunctionAdapter)
	if !ok {
		return nil, fmt.Errorf("remote source %s cannot execute virtual functions", vf.Source)
	}
	rows, err := p.e.remoteCall(p.ctx, vf.Source, fa, vf.Configuration, vf.Returns)
	if err != nil {
		return nil, fmt.Errorf("virtual function %s: %w", t.Name, err)
	}
	schema := vf.Returns.Qualify(t.Binding())
	if err := conformRows(rows, schema); err != nil {
		return nil, err
	}
	p.e.Metrics.RemoteQueries.Inc()
	p.e.Metrics.RemoteRowsFetched.Add(int64(rows.Len()))
	return &relation{
		Rel: exec.Rel{Schema: schema, Rows: rows.Data}, local: true,
		est:  float64(rows.Len()),
		node: node(fmt.Sprintf("Virtual Function %s [%s] (%d rows)", t.Name, vf.Source, rows.Len())),
	}, nil
}

// takeCovered removes and returns pool conjuncts the relation can evaluate
// alone.
func takeCovered(rel *relation, pool *[]expr.Expr) []expr.Expr {
	var taken []expr.Expr
	rest := (*pool)[:0:0]
	for _, c := range *pool {
		if rel.covers(c) {
			taken = append(taken, c)
		} else {
			rest = append(rest, c)
		}
	}
	*pool = rest
	return taken
}

// joinRelations joins two relations choosing among the federated
// strategies: merge into one shipped remote query, semijoin (IN-list
// pushdown), table relocation, or local hash join.
func (p *planner) joinRelations(l, r *relation, pool *[]expr.Expr) (*relation, error) {
	combined := l.Schema.Concat(r.Schema)

	// Strategy: merge same-source remote relations into one shipped query.
	if l.remote != nil && r.remote != nil &&
		strings.EqualFold(l.remote.source, r.remote.source) &&
		l.remote.adapter.Capabilities().Joins {
		merged := &relation{
			Rel: exec.Rel{Schema: combined},
			remote: &remoteRel{
				source:  l.remote.source,
				adapter: l.remote.adapter,
				tables:  append(append([]remoteTable{}, l.remote.tables...), r.remote.tables...),
				conjs:   append(append([]expr.Expr{}, l.remote.conjs...), r.remote.conjs...),
			},
			est: maxf(l.est, r.est),
		}
		for _, c := range takeCovered(merged, pool) {
			merged.remote.conjs = append(merged.remote.conjs, c)
		}
		return merged, nil
	}

	// Identify equi-join keys from the pool.
	var leftKeys, rightKeys []expr.Expr
	var residual []expr.Expr
	rest := (*pool)[:0:0]
	for _, c := range *pool {
		if lk, rk, ok := equiKeys(c, l, r); ok {
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
			continue
		}
		if expr.Covers(combined, c) {
			residual = append(residual, c)
			continue
		}
		rest = append(rest, c)
	}
	*pool = rest

	// Strategy: semijoin — ship the small side's join-key values as an
	// IN-list filter into the unrealized (remote or extended) side.
	if len(leftKeys) > 0 {
		if err := p.maybeSemiJoin(l, r, leftKeys, rightKeys); err != nil {
			return nil, err
		}
		if err := p.maybeSemiJoin(r, l, rightKeys, leftKeys); err != nil {
			return nil, err
		}
	}

	// Strategy: broadcast hash join — the probe side is sharded on the
	// worker fleet and the realized build side is small enough to ship to
	// every worker. Matches stream back tagged with their probe sequence,
	// so the merged output is the serial hash join's exact row order.
	if l.dst != nil && len(leftKeys) > 0 {
		if err := p.realize(r); err != nil {
			return nil, err
		}
		out, err := p.distBroadcastJoin(l, r, leftKeys, rightKeys, residual, combined)
		if err != nil {
			return nil, err
		}
		if out != nil {
			return out, nil
		}
	}

	// Strategy: table relocation — when the extended side is joined with a
	// too-large local table, execute the join at the extended store (local
	// build side shipped there).
	relocated := false
	if r.ext != nil && l.local && l.est > float64(p.e.semiJoinThreshold()) {
		relocated = true
		p.e.Metrics.RelocationsChosen.Inc()
		p.plan.Note("chose relocation: build side est %.0f > threshold %d", l.est, p.e.semiJoinThreshold())
	}

	if err := p.realizeBoth(l, r); err != nil {
		return nil, err
	}

	out := &relation{Rel: exec.Rel{Schema: combined}, local: true}
	var label string
	if len(leftKeys) > 0 {
		blk, brk, err := bindKeys(leftKeys, l.Schema, rightKeys, r.Schema)
		if err != nil {
			return nil, err
		}
		var res expr.Expr
		if len(residual) > 0 {
			if res, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), combined); err != nil {
				return nil, err
			}
		}
		out.Rows, err = exec.HashJoinParallel(p.ctx, p.e.pool, p.width, 0, p.stats,
			exec.JoinInner, l.Rel, r.Rel, blk, brk, res, r.Schema.Len())
		if err != nil {
			return nil, err
		}
		label = "Hash Join (INNER) on " + keySQL(leftKeys, rightKeys)
	} else {
		var on expr.Expr
		if len(residual) > 0 {
			var err error
			on, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), combined)
			if err != nil {
				return nil, err
			}
			residual = nil
			label = "Nested Loop Join on " + on.SQL()
		} else {
			label = "Nested Loop Join (cross)"
		}
		var err error
		if out.Rows, err = exec.NestedLoopJoin(exec.JoinInner, l.Rel, r.Rel, on); err != nil {
			return nil, err
		}
	}
	if relocated {
		label = "Table Relocation → Extended Storage: " + label
	}
	out.est = float64(len(out.Rows))
	out.node = node(fmt.Sprintf("%s (%d rows)", label, len(out.Rows)), l.node, r.node)
	return out, nil
}

// realizeBoth realizes two join inputs, fetching independent unrealized
// (remote / extended) leaves concurrently through the worker pool. Errors
// prefer the left side, matching the serial left-then-right order.
func (p *planner) realizeBoth(l, r *relation) error {
	if l.local || r.local {
		// At most one side does real work — realizing serially avoids
		// goroutine churn for the common local-join case.
		if err := p.realize(l); err != nil {
			return err
		}
		return p.realize(r)
	}
	rels := [2]*relation{l, r}
	_, err := p.e.pool.Run(p.ctx, 2, p.width, func(_ context.Context, i int) error {
		return p.realize(rels[i])
	})
	return err
}

// maybeSemiJoin pushes small's distinct join-key values into big as an
// IN-list when big is unrealized and small is cheap (§3.1 Semijoin: "data
// is passed from SAP HANA to the extended storage where it is used for
// filtering … in an IN-clause").
func (p *planner) maybeSemiJoin(small, big *relation, smallKeys, bigKeys []expr.Expr) error {
	if big.remote == nil && big.ext == nil {
		return nil
	}
	threshold := float64(p.e.semiJoinThreshold())
	if small.est > threshold {
		p.plan.Note("rejected semijoin: build side est %.0f > threshold %.0f", small.est, threshold)
		return nil
	}
	if err := p.realize(small); err != nil {
		return err
	}
	if float64(small.Len()) > threshold {
		p.plan.Note("rejected semijoin: build side %d rows > threshold %.0f", small.Len(), threshold)
		return nil
	}
	rows := small.AllRows()
	for i := range smallKeys {
		key, err := expr.BindClone(smallKeys[i], small.Schema)
		if err != nil {
			return err
		}
		vals, _, err := keyValues(rows, key)
		if err != nil {
			return err
		}
		if len(vals) == 0 {
			// Empty build side: the join is empty; an impossible filter
			// short-circuits the remote scan.
			vals = append(vals, value.Null)
		}
		in := expr.NewIn(expr.Clone(bigKeys[i]), vals, false)
		big.addConj(in)
		if big.remote != nil {
			p.e.Metrics.SemiJoinsChosen.Inc()
			p.plan.Note("chose semijoin: shipped %d key values to %s", len(in.List), big.remote.source)
		}
	}
	return nil
}

// equiKeys decomposes an equality conjunct into left/right key expressions
// when each side is covered by a different relation.
func equiKeys(c expr.Expr, l, r *relation) (lk, rk expr.Expr, ok bool) {
	b, isBin := c.(*expr.BinOp)
	if !isBin || b.Op != expr.OpEq {
		return nil, nil, false
	}
	if l.covers(b.L) && r.covers(b.R) && !isLiteral(b.L) && !isLiteral(b.R) {
		return b.L, b.R, true
	}
	if l.covers(b.R) && r.covers(b.L) && !isLiteral(b.L) && !isLiteral(b.R) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

func isLiteral(e expr.Expr) bool {
	_, ok := e.(*expr.Literal)
	return ok
}

func bindKeys(lk []expr.Expr, ls *value.Schema, rk []expr.Expr, rs *value.Schema) ([]expr.Expr, []expr.Expr, error) {
	bl := make([]expr.Expr, len(lk))
	br := make([]expr.Expr, len(rk))
	for i := range lk {
		var err error
		if bl[i], err = expr.BindClone(lk[i], ls); err != nil {
			return nil, nil, err
		}
		if br[i], err = expr.BindClone(rk[i], rs); err != nil {
			return nil, nil, err
		}
	}
	return bl, br, nil
}

func keySQL(lk, rk []expr.Expr) string {
	parts := make([]string, len(lk))
	for i := range lk {
		parts[i] = lk[i].SQL() + " = " + rk[i].SQL()
	}
	return strings.Join(parts, " AND ")
}

// leftOuterJoin plans a structural LEFT OUTER JOIN with its ON condition.
func (p *planner) leftOuterJoin(l, r *relation, on expr.Expr) (*relation, error) {
	if err := p.realizeBoth(l, r); err != nil {
		return nil, err
	}
	combined := l.Schema.Concat(r.Schema)
	var leftKeys, rightKeys []expr.Expr
	var residual []expr.Expr
	for _, c := range expr.SplitConjuncts(on) {
		if lk, rk, ok := equiKeys(c, l, r); ok {
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
		} else {
			residual = append(residual, c)
		}
	}
	out := &relation{Rel: exec.Rel{Schema: combined}, local: true}
	if len(leftKeys) > 0 {
		blk, brk, err := bindKeys(leftKeys, l.Schema, rightKeys, r.Schema)
		if err != nil {
			return nil, err
		}
		var res expr.Expr
		if len(residual) > 0 {
			if res, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), combined); err != nil {
				return nil, err
			}
		}
		out.Rows, err = exec.HashJoinParallel(p.ctx, p.e.pool, p.width, 0, p.stats,
			exec.JoinLeftOuter, l.Rel, r.Rel, blk, brk, res, r.Schema.Len())
		if err != nil {
			return nil, err
		}
	} else {
		bon, err := expr.BindClone(on, combined)
		if err != nil {
			return nil, err
		}
		if out.Rows, err = exec.NestedLoopJoin(exec.JoinLeftOuter, l.Rel, r.Rel, bon); err != nil {
			return nil, err
		}
	}
	out.est = float64(len(out.Rows))
	out.node = node(fmt.Sprintf("Hash Join (LEFT OUTER) (%d rows)", len(out.Rows)), l.node, r.node)
	return out, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// blockRows plans and materializes a nested query block.
func (p *planner) blockRows(sel *sqlparse.SelectStmt) (*value.Rows, *planNode, error) {
	in, blk, n, err := p.planQueryBlock(sel)
	if err != nil {
		return nil, nil, err
	}
	rows, err := blk.Finish(in)
	if err != nil {
		return nil, nil, err
	}
	return rows, n, nil
}
