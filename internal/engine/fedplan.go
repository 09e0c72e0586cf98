package engine

import (
	"fmt"
	"strings"

	"hana/internal/catalog"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/fed"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// planNode is one node of the EXPLAIN tree.
type planNode struct {
	label    string
	children []*planNode
}

func node(label string, children ...*planNode) *planNode {
	return &planNode{label: label, children: children}
}

func (n *planNode) render(b *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
	b.WriteString(n.label)
	b.WriteByte('\n')
	for _, c := range n.children {
		c.render(b, indent+1)
	}
}

// String renders the plan tree.
func (n *planNode) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

// relation is the planner's intermediate: either a realized local relation —
// the embedded exec.Rel, whose Schema every relation has and whose rows or
// vectorized scan batches a local one holds — or a shippable remote query
// under construction, or an extended-storage or sharded scan under
// construction. Conjuncts attach to unrealized relations so the chosen
// federated strategy can push them down.
type relation struct {
	exec.Rel
	local bool

	remote *remoteRel
	ext    *extRel
	dst    *distRel

	est  float64
	node *planNode
}

// remoteRel is a query being assembled for one SDA remote source.
type remoteRel struct {
	source  string
	adapter fed.Adapter
	// tables are the remote objects with their local bindings.
	tables []remoteTable
	conjs  []expr.Expr
}

type remoteTable struct {
	path    []string
	binding string
	schema  *value.Schema // qualified by binding
}

// extRel is a pending scan over extended-storage (cold) partitions plus the
// hot fragments of the same hybrid table.
type extRel struct {
	t     *storedTable
	conjs []expr.Expr
}

// addConj pushes a predicate into the unrealized relation.
func (r *relation) addConj(c expr.Expr) {
	switch {
	case r.remote != nil:
		r.remote.conjs = append(r.remote.conjs, c)
	case r.ext != nil:
		r.ext.conjs = append(r.ext.conjs, c)
	case r.dst != nil:
		r.dst.conjs = append(r.dst.conjs, c)
	}
}

// covers reports whether every column in the expression resolves in the
// relation's schema.
func (r *relation) covers(e expr.Expr) bool {
	for _, c := range expr.Columns(e) {
		if r.Schema.Find(c) < 0 {
			return false
		}
	}
	return true
}

// realize turns the relation into materialized local rows.
func (p *planner) realize(r *relation) error {
	switch {
	case r.local:
		return nil
	case r.remote != nil:
		return p.realizeRemote(r)
	case r.ext != nil:
		return p.realizeExt(r)
	case r.dst != nil:
		return p.realizeDist(r)
	}
	return fmt.Errorf("empty relation")
}

// realizeRemote ships the assembled query to the remote source ("Remote
// Scan" in SDA terms) and materializes the result as a transient virtual
// table.
func (p *planner) realizeRemote(r *relation) error {
	rr := r.remote
	sel := &sqlparse.SelectStmt{Limit: -1}
	for _, col := range r.Schema.Cols {
		sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: expr.Col(col.Name)})
	}
	var from sqlparse.TableExpr
	for _, t := range rr.tables {
		ref := &sqlparse.TableRef{Parts: t.path, Alias: t.binding}
		if from == nil {
			from = ref
		} else {
			from = &sqlparse.JoinExpr{Type: sqlparse.JoinCross, L: from, R: ref}
		}
	}
	sel.From = from
	sel.Where = expr.And(expr.CloneAll(rr.conjs)...)
	sql := sqlparse.RenderSelect(sel)

	opts := p.remoteOpts(sel.Where != nil)
	res, err := p.e.remoteQuery(p.ctx, rr.source, rr.adapter, sql, opts)
	if err != nil {
		return fmt.Errorf("remote source %s: %w", rr.source, err)
	}
	p.e.Metrics.RemoteQueries.Inc()
	p.e.Metrics.RemoteRowsFetched.Add(int64(res.Rows.Len()))
	if res.FromCache {
		p.e.Metrics.RemoteCacheHits.Inc()
	}
	label := fmt.Sprintf("Remote Row Scan [%s] (%d rows)", rr.source, res.Rows.Len())
	if res.FromCache {
		label += " [remote cache hit]"
	}
	if res.FromFallback {
		label += " [fallback cache]"
	}
	shown := *sel
	shown.Where = elideLists(sel.Where)
	r.node = node(label, node("shipped: "+sqlparse.RenderSelect(&shown)))
	if err := conformRows(res.Rows, r.Schema); err != nil {
		return fmt.Errorf("remote source %s returned incompatible rows: %w", rr.source, err)
	}
	r.Rows = res.Rows.Data
	r.local = true
	r.remote = nil
	r.est = float64(len(r.Rows))
	return nil
}

// remoteOpts derives QueryOptions from the session hint and engine config
// (§4.4: hint + enable_remote_cache + predicate-only rule; the adapter
// enforces remote_cache_validity).
func (p *planner) remoteOpts(hasPredicates bool) fed.QueryOptions {
	enabled, validity := p.e.remoteCacheCfg()
	use := p.useCache && enabled && hasPredicates
	return fed.QueryOptions{UseCache: use, Validity: validity}
}

// conformRows casts remote result rows to the expected schema (SDA
// "applies the required data type conversions").
func conformRows(rows *value.Rows, want *value.Schema) error {
	if rows.Schema.Len() != want.Len() {
		return fmt.Errorf("arity %d, want %d", rows.Schema.Len(), want.Len())
	}
	for i, r := range rows.Data {
		for j := range r {
			v, err := value.Cast(r[j], want.Cols[j].Kind)
			if err != nil {
				return err
			}
			rows.Data[i][j] = v
		}
	}
	return nil
}

// realizeExt executes the pending scan of an extended or hybrid table. The
// pushed conjuncts go to the scan, which prunes partitions by their bounds
// and cold chunks by their zone maps; what it read decides the label: hot
// and cold fragments combined are a "Union Plan", cold alone a remote scan
// or — when IN-list values were shipped — a semijoin.
func (p *planner) realizeExt(r *relation) error {
	t := r.ext.t
	// Bind pushed conjuncts against the (qualified) leaf schema.
	var bound []expr.Expr
	inCount := 0
	for _, c := range r.ext.conjs {
		bc, err := expr.BindClone(c, r.Schema)
		if err != nil {
			return err
		}
		bound = append(bound, bc)
		if in, ok := bc.(*expr.In); ok && literalIn(in) != nil {
			inCount += len(in.List)
		}
	}
	pred := expr.And(bound...)
	sc, err := p.scan(t, t.parts, r.Schema, pred, neededOrds(p.needed, t.meta.Schema))
	if err != nil {
		return err
	}
	var usedCold, usedHot bool
	var hotRows, coldRows int
	for i, part := range t.parts {
		switch {
		case sc.pruned[i]:
		case part.cold:
			usedCold = true
			coldRows += sc.visible[i]
		default:
			usedHot = true
			hotRows += sc.visible[i]
		}
	}
	// Plan labeling + strategy metrics.
	switch {
	case usedHot && usedCold:
		label := fmt.Sprintf("Union Plan [%s] (hot %d ∪ cold %d rows scanned)", t.meta.Name, hotRows, coldRows)
		if inCount > 0 {
			label += fmt.Sprintf(" + Semijoin (%d values shipped)", inCount)
		}
		r.node = node(label)
		p.e.Metrics.UnionPlansChosen.Inc()
		p.plan.Note("chose union plan for %s: hot %d ∪ cold %d rows", t.meta.Name, hotRows, coldRows)
		if inCount > 0 {
			p.e.Metrics.SemiJoinsChosen.Inc()
		}
	case usedCold && inCount > 0:
		r.node = node(fmt.Sprintf("Semijoin → Extended Storage [%s] (%d values shipped, %d rows scanned)", t.meta.Name, inCount, coldRows))
		p.e.Metrics.SemiJoinsChosen.Inc()
		p.plan.Note("chose semijoin → extended storage for %s: %d values shipped", t.meta.Name, inCount)
	case usedCold:
		r.node = node(fmt.Sprintf("Remote Scan → Extended Storage [%s] (%d rows scanned)", t.meta.Name, coldRows))
		p.e.Metrics.RemoteScansChosen.Inc()
		p.plan.Note("chose remote scan → extended storage for %s: %d rows", t.meta.Name, coldRows)
	default:
		r.node = node(fmt.Sprintf("Column Scan [%s] (%d rows)", t.meta.Name, hotRows))
	}
	if pred != nil {
		r.node.children = append(r.node.children, node("pushed filter: "+planSQL(pred)))
	}
	r.Batches = sc.batches
	r.local = true
	r.ext = nil
	r.est = float64(r.Len())
	return nil
}

// colOpLiteral decomposes col OP literal (or literal OP col, flipped).
func colOpLiteral(b *expr.BinOp) (*expr.ColRef, value.Value, expr.Op) {
	if !b.Op.Comparison() {
		return nil, value.Null, expr.OpInvalid
	}
	if c, ok := b.L.(*expr.ColRef); ok {
		if l, ok := b.R.(*expr.Literal); ok {
			return c, l.Val, b.Op
		}
	}
	if c, ok := b.R.(*expr.ColRef); ok {
		if l, ok := b.L.(*expr.Literal); ok {
			flip := map[expr.Op]expr.Op{
				expr.OpLt: expr.OpGt, expr.OpLe: expr.OpGe,
				expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe,
				expr.OpEq: expr.OpEq, expr.OpNe: expr.OpNe,
			}
			return c, l.Val, flip[b.Op]
		}
	}
	return nil, value.Null, expr.OpInvalid
}

// estimateLeaf computes the expected row count of a leaf after its pushed
// predicates, using q-error histograms when available and textbook default
// selectivities otherwise.
func estimateLeaf(meta *catalog.TableMeta, baseRows int64, conjs []expr.Expr) float64 {
	est := float64(baseRows)
	for _, c := range conjs {
		sel := 0.25
		switch n := c.(type) {
		case *expr.BinOp:
			col, lit, op := colOpLiteral(n)
			if col != nil && meta != nil {
				if h := meta.Histogram(col.Name); h != nil && h.Total > 0 {
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
