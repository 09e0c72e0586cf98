package engine

import (
	"context"
	"fmt"
	"strings"

	"hana/internal/catalog"
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
	needed sqlparse.ColumnSet

	// localOnly pins the statement to the engine node (WithLocalOnly);
	// fanout caps concurrent shard fragments (WithShards, 0 = all).
	localOnly bool
	fanout    int

	// keySets maps each subquery key-set conjunct placeSubqueries put into
	// a pool to its number of keys.
	keySets map[expr.Expr]int

	// leaves memoizes leafOf.
	leaves map[*sqlparse.TableRef]*leaf
}

// newPlanner sets up the reader a statement runs as: tx's snapshot and
// writes (nil = the last committed state), ctx and width for its morsel
// dispatches. Readers that only scan — DML target collection, aging,
// statistics — pass no SELECT.
func (e *Engine) newPlanner(ctx context.Context, tx *txn.Txn, sel *sqlparse.SelectStmt, width int) *planner {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &planner{e: e, ctx: ctx, width: width, stats: &exec.Counters{}, leaves: map[*sqlparse.TableRef]*leaf{}}
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
		p.needed = sqlparse.ReferencedColumns(sel)
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
func (p *planner) runBlock(ctx context.Context, sel *sqlparse.SelectStmt) (exec.Rel, *exec.PlanNode, error) {
	parent := obs.SpanFrom(ctx)
	pl := parent.StartSpan("plan")
	p.plan = pl
	p.ctx = obs.ContextWithSpan(p.ctx, pl)
	b, err := p.planQueryBlock(sel)
	pl.End()
	if err != nil {
		return exec.Rel{}, nil, err
	}
	ex := parent.StartSpan("exec")
	defer ex.End()
	rows, root, err := p.finish(b)
	if err != nil {
		return exec.Rel{}, nil, err
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
	out, root, err := p.runBlock(ctx, sel)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: out.Schema, Rows: out.AllRows(), Plan: root.String(), Stats: p.execStats()}, nil
}

// explain plans (and for federated parts executes the shipping decision)
// without returning data rows. EXPLAIN TRACE additionally returns the
// recorded span timeline as rows, one per span in preorder.
func (e *Engine) explain(ctx context.Context, ex *sqlparse.ExplainStmt, width int) (*Result, error) {
	p := e.newPlanner(ctx, nil, ex.Sel, width)
	_, root, err := p.runBlock(ctx, ex.Sel)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: root.String(), Message: "explained", Stats: p.execStats()}
	if ex.Trace {
		tr := obs.TraceFrom(ctx)
		rows := traceSpanRows(tr)
		res.Schema, res.Rows, res.Message, res.Trace = rows.Schema, rows.Data, "traced", tr
	}
	return res, nil
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

// block is a query block planned and run up to its back end: blk.Finish
// over in, whose plan is node. subs are the plans of the subqueries run
// ahead of it, shown under the block's top node.
type block struct {
	in   exec.Rel
	blk  *exec.Block
	node *exec.PlanNode
	subs []*exec.PlanNode
}

// finish runs the block's back end and returns its relation and whole plan.
func (p *planner) finish(b *block) (exec.Rel, *exec.PlanNode, error) {
	out, root, err := b.blk.Finish(p.ctx, b.in, b.node)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	root.Children = append(root.Children, b.subs...)
	return out, root, nil
}

// planQueryBlock plans one SELECT block: whole-statement shipping when
// every referenced table lives in one remote source (§4.2 "It is even
// possible that complete queries are processed via Hive and Hadoop"),
// otherwise local planning with per-leaf pushdown. It runs everything up to
// the block's back end.
func (p *planner) planQueryBlock(sel *sqlparse.SelectStmt) (*block, error) {
	if err := exec.CheckSubqueries(sel); err != nil {
		return nil, err
	}
	if b, err := p.tryShipWhole(sel); err != nil || b != nil {
		return b, err
	}

	// Split WHERE into plain conjuncts and subquery predicates; the latter
	// are evaluated first and join the pool behind the plain conjuncts.
	pool, transforms, err := exec.SplitWhere(sel.Where, p.runNested)
	if err != nil {
		return nil, err
	}
	transforms, subs, err := p.placeSubqueries(sel, transforms, &pool)
	if err != nil {
		return nil, err
	}

	rel, err := p.planFromExpr(sel.From, &pool)
	if err != nil {
		return nil, err
	}
	// Single distributed leaf with nothing left in the pool: try shipping
	// the aggregation itself so only per-group partials cross the exchange.
	if ps := rel.pendingAt(placeSharded); ps != nil && len(ps.coord) == 0 && len(pool) == 0 && len(transforms) == 0 {
		if b, err := p.tryDistAggregate(sel, rel, subs); err != nil || b != nil {
			return b, err
		}
	}
	if err := p.realize(rel); err != nil {
		return nil, err
	}
	in, root := rel.Rel, rel.node

	// Residual conjuncts that never found a single home (cross-relation
	// non-equi predicates).
	if len(pool) > 0 {
		pred, err := expr.BindClone(expr.And(expr.CloneAll(pool)...), in.Schema)
		if err != nil {
			return nil, err
		}
		if in, err = exec.Filter(in, pred); err != nil {
			return nil, err
		}
		root = exec.Node("Filter:", planSQL(pred), in.Len(), root)
	}

	// The subquery predicates placeSubqueries left alone become semi/anti
	// joins on top.
	for _, tf := range transforms {
		var err error
		in, root, err = p.applyTransform(in, root, tf)
		if err != nil {
			return nil, err
		}
	}

	blk, err := exec.AnalyzeBlock(sel, in.Schema)
	if err != nil {
		return nil, err
	}
	if blk.Aggregates() {
		agg := &exec.ParallelHashAggregate{
			In: in, GroupBy: blk.GroupBy, Aggs: blk.Aggs, Out: blk.AggSchema,
			Pool: p.e.pool, Ctx: p.ctx, Width: p.width, Stats: p.stats,
		}
		if in, err = agg.Run(); err != nil {
			return nil, err
		}
		root = &exec.PlanNode{Op: "Hash Aggregate", Rows: in.Len(), Notes: []string{fmt.Sprintf("%d group cols", len(blk.GroupBy))}, Children: []*exec.PlanNode{root}}
	}
	return &block{in: in, blk: blk, node: root, subs: subs}, nil
}

// planFromExpr plans a FROM tree. Inner/cross joins are flattened with the
// conjunct pool driving join keys and pushdown; left outer joins keep their
// structure.
func (p *planner) planFromExpr(te sqlparse.TableExpr, pool *[]expr.Expr) (*relation, error) {
	if te == nil {
		// SELECT without FROM: one empty row.
		return &relation{Rel: exec.RowRel(value.NewSchema(), []value.Row{{}}, nil), est: 1, node: exec.Node("Single Row", "", 1)}, nil
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
			// The right side takes the ON conjuncts that read only its
			// columns, as a filter before the build: a right row failing one
			// matches no left row. The rest stay with the join, where a left
			// row that fails them still comes out null-extended.
			on := expr.SplitConjuncts(t.On)
			r, err := p.planFromExpr(t.R, &on)
			if err != nil {
				return nil, err
			}
			return p.leftOuterJoin(l, r, on)
		default:
			return nil, fmt.Errorf("%s JOIN is not supported", t.Type)
		}
	case *sqlparse.TableRef:
		return p.planTableLeaf(t, pool)
	case *sqlparse.SubqueryTable:
		res, sub, err := p.blockRel(t.Sel)
		if err != nil {
			return nil, err
		}
		res.Schema = res.Schema.Qualify(t.Alias)
		return &relation{Rel: res, est: float64(res.Len()), node: exec.Node("Derived Table", t.Alias, res.Len(), sub)}, nil
	case *sqlparse.TableFuncRef:
		return p.planTableFunc(t)
	}
	return nil, fmt.Errorf("unsupported FROM element %T", te)
}

// placement is where a FROM table's rows are read.
type placement uint8

const (
	placeLocal   placement = iota // in-memory partitions, scanned on this node
	placeSharded                  // hash-sharded replicas on the worker fleet
	placeCold                     // extended storage, alone or beside hot partitions (hybrid)
	placeRemote                   // an SDA virtual table at a remote source
)

// leaf is one FROM table as the planner resolved it: every planner function
// that asks what a table is or where it lives reads this.
type leaf struct {
	name    string        // as written
	binding string        // the alias, or the name
	schema  *value.Schema // qualified by binding
	place   placement

	t *storedTable // every placement but remote

	source  string // remote: the SDA source, its adapter and the remote object
	adapter fed.Adapter
	path    []string

	base int64 // the row count the estimate starts from
}

// leafOf resolves a FROM table once per planner. A shardable table is read
// on this node by an explicit transaction, whose own writes the workers do
// not hold, and under WithLocalOnly.
func (p *planner) leafOf(ref *sqlparse.TableRef) (*leaf, error) {
	if l, ok := p.leaves[ref]; ok {
		return l, nil
	}
	l := &leaf{name: ref.Name(), binding: ref.Binding()}
	if vt, ok := p.e.cat.VirtualTable(l.name); ok {
		a, err := p.e.adapter(vt.Source)
		if err != nil {
			return nil, err
		}
		l.place, l.source, l.adapter, l.path = placeRemote, vt.Source, a, vt.Remote
		l.schema = vt.Schema.Qualify(l.binding)
		l.base = 100000
		if st, ok := a.TableStats(vt.Remote); ok {
			l.base = st.RowCount
		}
	} else {
		st, err := p.e.table(l.name)
		if err != nil {
			return nil, err
		}
		l.t = st
		l.schema = st.meta.Schema.Qualify(l.binding)
		switch {
		case st.firstCold() != nil:
			l.place = placeCold
		case p.tid == 0 && !p.localOnly && p.e.distFor(st) != nil:
			l.place = placeSharded
		}
		if l.base = st.meta.Stats.RowCount; l.base == 0 {
			for _, part := range st.parts {
				l.base += int64(part.numRows())
			}
		}
	}
	p.leaves[ref] = l
	return l, nil
}

// estimate is the leaf's expected row count after conjs, from q-error
// histograms where ANALYZE collected them and textbook default
// selectivities otherwise.
func (l *leaf) estimate(conjs []expr.Expr) float64 {
	est := float64(l.base)
	for _, c := range conjs {
		sel := 0.25
		switch n := c.(type) {
		case *expr.BinOp:
			col, lit, op := colOpLiteral(n)
			if h := l.histogram(col); h != nil {
				switch op {
				case expr.OpEq:
					sel = h.Selectivity(h.EstimateEq(lit))
				case expr.OpGt, expr.OpGe:
					sel = h.Selectivity(h.EstimateRange(&lit, nil))
				case expr.OpLt, expr.OpLe:
					sel = h.Selectivity(h.EstimateRange(nil, &lit))
				default:
					sel = 0.5
				}
				break
			}
			if op == expr.OpEq {
				sel = 0.05
			} else {
				sel = 0.33
			}
		case *expr.Between:
			sel = 0.25
		case *expr.In:
			sel = 0.1
		case *expr.Like:
			sel = 0.25
		}
		est *= sel
	}
	if est < 1 {
		est = 1
	}
	return est
}

// histogram returns the collected histogram of one of the leaf's columns,
// nil when there is none. The column may be written qualified (t.a, x.a):
// stored column names are not.
func (l *leaf) histogram(col *expr.ColRef) *catalog.Histogram {
	if col == nil || l.t == nil {
		return nil
	}
	if h := l.t.meta.Histogram(col.Name[strings.LastIndexByte(col.Name, '.')+1:]); h != nil && h.Total > 0 {
		return h
	}
	return nil
}

// planTableLeaf plans a stored or virtual table as a pending scan at its
// placement, with the pool conjuncts the table alone can evaluate pushed
// into it. A local table is scanned at once: relocation and the semijoin
// check read its actual row count.
func (p *planner) planTableLeaf(t *sqlparse.TableRef, pool *[]expr.Expr) (*relation, error) {
	l, err := p.leafOf(t)
	if err != nil {
		return nil, err
	}
	ps := &pendingScan{place: l.place, leaves: []*leaf{l}}
	rel := &relation{Rel: exec.Rel{Schema: l.schema}, pend: ps}
	conjs := expr.TakeCovered(l.schema, pool)
	for i, c := range conjs {
		// A subquery key set ships inside a sharded fragment unless it has
		// more keys than the rows the leaf's other conjuncts are estimated
		// to leave: then gathering those rows and filtering them at the
		// coordinator moves less.
		if n, ok := p.keySets[c]; ok && l.place == placeSharded {
			if est := l.estimate(append(conjs[:i:i], conjs[i+1:]...)); float64(n) > est {
				ps.coord = append(ps.coord, c)
				p.plan.Note("dist: key set of %d > %.0f rows estimated without it, filtering %s at the coordinator", n, est, l.name)
				continue
			}
		}
		ps.conjs = append(ps.conjs, c)
	}
	rel.est = l.estimate(conjs)
	if l.place == placeLocal {
		if err := p.realize(rel); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// planTableFunc invokes a local table provider (HANA join over ESP window
// state) or a virtual function (§4.3) on its remote source.
func (p *planner) planTableFunc(t *sqlparse.TableFuncRef) (*relation, error) {
	if rows, ok, err := p.e.views.Rows(t.Name); ok || err != nil {
		if err != nil {
			return nil, fmt.Errorf("table provider %s: %w", t.Name, err)
		}
		return &relation{Rel: exec.RowRel(rows.Schema.Qualify(t.Binding()), rows.Data, nil), est: float64(rows.Len()),
			node: exec.Node("Table Provider", t.Name, rows.Len())}, nil
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
	return &relation{Rel: exec.RowRel(schema, rows.Data, nil), est: float64(rows.Len()),
		node: &exec.PlanNode{Op: "Virtual Function", Object: vf.Source, Detail: t.Name, Rows: rows.Len()}}, nil
}

// joinRelations joins two relations choosing among the federated
// strategies: merge into one shipped remote query, semijoin (IN-list
// pushdown), table relocation, or local hash join.
func (p *planner) joinRelations(l, r *relation, pool *[]expr.Expr) (*relation, error) {
	// Strategy: merge same-source remote relations into one shipped query.
	if lp, rp := l.pendingAt(placeRemote), r.pendingAt(placeRemote); lp != nil && rp != nil &&
		strings.EqualFold(lp.leaves[0].source, rp.leaves[0].source) &&
		lp.leaves[0].adapter.Capabilities().Joins {
		merged := &relation{
			Rel: exec.Rel{Schema: l.Schema.Concat(r.Schema)},
			pend: &pendingScan{
				place:  placeRemote,
				leaves: append(append([]*leaf{}, lp.leaves...), rp.leaves...),
				conjs:  append(append([]expr.Expr{}, lp.conjs...), rp.conjs...),
			},
			est: max(l.est, r.est),
		}
		merged.pend.conjs = append(merged.pend.conjs, expr.TakeCovered(merged.Schema, pool)...)
		return merged, nil
	}

	// Identify equi-join keys from the pool.
	leftKeys, rightKeys, residual, rest := expr.SplitJoin(*pool, l.Schema, r.Schema)
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
	if l.pendingAt(placeSharded) != nil && len(leftKeys) > 0 {
		if err := p.realize(r); err != nil {
			return nil, err
		}
		out, err := p.distBroadcastJoin(l, r, leftKeys, rightKeys, residual)
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
	if r.pendingAt(placeCold) != nil && l.pend == nil && l.est > float64(p.e.semiJoinThreshold()) {
		relocated = true
		p.e.Metrics.RelocationsChosen.Inc()
		p.plan.Note("chose relocation: build side est %.0f > threshold %d", l.est, p.e.semiJoinThreshold())
	}
	return p.localJoin(exec.JoinInner, l, r, leftKeys, rightKeys, residual, relocated)
}

// leftOuterJoin plans a structural LEFT OUTER JOIN with what is left of its
// ON conjuncts.
func (p *planner) leftOuterJoin(l, r *relation, on []expr.Expr) (*relation, error) {
	leftKeys, rightKeys, residual, rest := expr.SplitJoin(on, l.Schema, r.Schema)
	return p.localJoin(exec.JoinLeftOuter, l, r, leftKeys, rightKeys, append(residual, rest...), false)
}

// localJoin realizes both inputs and joins them on this node: a morsel hash
// join on the key pairs, with the residual checked on each match, which with
// no keys is the nested-loop join on the residual. relocated marks an inner
// join the relocation strategy chose.
func (p *planner) localJoin(kind exec.JoinKind, l, r *relation, leftKeys, rightKeys, residual []expr.Expr, relocated bool) (*relation, error) {
	if err := p.realizeBoth(l, r); err != nil {
		return nil, err
	}
	var res expr.Expr
	if len(residual) > 0 {
		var err error
		if res, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), l.Schema.Concat(r.Schema)); err != nil {
			return nil, err
		}
	}
	blk, brk, err := bindKeys(leftKeys, l.Schema, rightKeys, r.Schema)
	if err != nil {
		return nil, err
	}
	out := &relation{}
	if out.Rel, _, err = exec.HashJoin(p.ctx, p.e.pool, p.width, 0, p.stats, kind, l.Rel, r.Rel, blk, brk, res); err != nil {
		return nil, err
	}
	op, detail := "Hash Join", "(INNER)"
	if kind == exec.JoinLeftOuter {
		detail = "(LEFT OUTER)"
	}
	if len(leftKeys) > 0 {
		detail += " on " + keySQL(leftKeys, rightKeys)
	} else {
		op = "Nested Loop Join"
		switch {
		case res == nil && kind == exec.JoinInner:
			detail = "(cross)"
		case res != nil && kind == exec.JoinInner:
			detail = "on " + res.SQL()
		case res != nil:
			detail += " on " + res.SQL()
		}
	}
	if relocated {
		op = "Table Relocation → Extended Storage: " + op
	}
	out.est = float64(out.Len())
	out.node = exec.Node(op, detail, out.Len(), l.node, r.node)
	return out, nil
}

// realizeBoth realizes two join inputs, fetching independent unrealized
// (remote / extended) leaves concurrently through the worker pool. Errors
// prefer the left side, matching the serial left-then-right order.
func (p *planner) realizeBoth(l, r *relation) error {
	if l.pend == nil || r.pend == nil {
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
	ps := big.pend
	if ps == nil || (ps.place != placeRemote && ps.place != placeCold) {
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
	for i := range smallKeys {
		key, err := expr.BindClone(smallKeys[i], small.Schema)
		if err != nil {
			return err
		}
		set, err := exec.KeySet(small.Rel, key)
		if err != nil {
			return err
		}
		// NULL keys match nothing. An empty build side makes the join empty:
		// the impossible filter IN (NULL) short-circuits the remote scan.
		set.HasNull = set.Len() == 0
		in := expr.NewIn(expr.Clone(bigKeys[i]), set, false)
		ps.conjs = append(ps.conjs, in)
		if ps.place == placeRemote {
			p.e.Metrics.SemiJoinsChosen.Inc()
			p.plan.Note("chose semijoin: shipped %d key values to %s", in.Len(), ps.leaves[0].source)
		}
	}
	return nil
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

// blockRel plans and runs a nested query block.
func (p *planner) blockRel(sel *sqlparse.SelectStmt) (exec.Rel, *exec.PlanNode, error) {
	b, err := p.planQueryBlock(sel)
	if err != nil {
		return exec.Rel{}, nil, err
	}
	return p.finish(b)
}

// runNested is the engine's exec.RunBlock: a nested block planned and run
// here, its rows boxed.
func (p *planner) runNested(sel *sqlparse.SelectStmt) (*value.Rows, error) {
	out, _, err := p.blockRel(sel)
	if err != nil {
		return nil, err
	}
	return &value.Rows{Schema: out.Schema, Data: out.AllRows()}, nil
}
