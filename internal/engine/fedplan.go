package engine

import (
	"fmt"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/fed"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// relation is the planner's intermediate: the embedded exec.Rel, whose
// Schema every relation has and whose rows or vectorized scan batches a
// realized one holds, or, while pend is set, a scan not yet run. Conjuncts
// attach to a pending scan so the chosen strategy can push them down.
type relation struct {
	exec.Rel
	pend *pendingScan // nil = realized

	est  float64
	node *exec.PlanNode
}

// pendingScan is a scan of FROM tables at one placement that has not run:
// a sharded fragment, a cold table's scan or a remote query. leaves has more
// than one entry only when same-source virtual tables merged into one
// shipped statement. conjs are pushed into the scan. coord, on a sharded
// scan, are covered conjuncts that stay off the wire (subquery key sets with
// more keys than the rows the leaf is estimated to return without them) and
// filter the gathered rows at the coordinator instead.
type pendingScan struct {
	place  placement
	leaves []*leaf
	conjs  []expr.Expr
	coord  []expr.Expr
}

// pendingAt returns the relation's pending scan when it is one at place.
func (r *relation) pendingAt(place placement) *pendingScan {
	if r.pend != nil && r.pend.place == place {
		return r.pend
	}
	return nil
}

// realize runs the relation's pending scan, if any, into materialized local
// rows.
func (p *planner) realize(r *relation) error {
	if r.pend == nil {
		return nil
	}
	var err error
	switch r.pend.place {
	case placeRemote:
		err = p.realizeRemote(r)
	case placeSharded:
		err = p.realizeDist(r)
	default:
		err = p.realizeScan(r)
	}
	if err != nil {
		return err
	}
	r.pend = nil
	r.est = float64(r.Len())
	return nil
}

// remoteRowScan labels a leaf's shipped scan.
const remoteRowScan = "Remote Row Scan"

// realizeRemote ships the assembled query to the remote source ("Remote
// Scan" in SDA terms) and materializes the result as a transient virtual
// table. Only the columns the statement reads are shipped (at least one, so
// the rows still count); the fetched columns land at their ordinals of the
// relation's schema and the unread ones are pruned, as a local scan's are.
func (p *planner) realizeRemote(r *relation) error {
	ps := r.pend
	src := ps.leaves[0]
	sel := &sqlparse.SelectStmt{Limit: -1}
	var ords []int
	need := p.needed.Mask(r.Schema)
	for i := range r.Schema.Cols {
		if need == nil || need[i] {
			ords = append(ords, i)
		}
	}
	if len(ords) == 0 {
		ords = []int{0}
	}
	shipped := &value.Schema{Cols: make([]value.Column, len(ords))}
	for i, o := range ords {
		shipped.Cols[i] = r.Schema.Cols[o]
		sel.Items = append(sel.Items, sqlparse.SelectItem{Expr: expr.Col(r.Schema.Cols[o].Name)})
	}
	for _, l := range ps.leaves {
		ref := &sqlparse.TableRef{Parts: l.path, Alias: l.binding}
		if sel.From == nil {
			sel.From = ref
		} else {
			sel.From = &sqlparse.JoinExpr{Type: sqlparse.JoinCross, L: sel.From, R: ref}
		}
	}
	sel.Where = expr.And(expr.CloneAll(ps.conjs)...)
	res, n, err := p.fetchRemote(src.source, src.adapter, sel, sel.Where != nil, remoteRowScan)
	if err != nil {
		return err
	}
	shown := *sel
	shown.Where = elideLists(sel.Where)
	n.Attrs = []string{"shipped: " + sqlparse.RenderSelect(&shown)}
	r.node = n
	if err := conformRows(res.Rows, shipped); err != nil {
		return fmt.Errorf("remote source %s returned incompatible rows: %w", src.source, err)
	}
	r.Batches = exec.RowRel(shipped, res.Rows.Data, nil).Batches
	for i, b := range r.Batches {
		wide := &value.Batch{Schema: r.Schema, Cols: make([]value.Vec, r.Schema.Len()), N: b.N}
		for c := range wide.Cols {
			wide.Cols[c] = value.Vec{Kind: r.Schema.Cols[c].Kind, Pruned: true}
		}
		for j, o := range ords {
			wide.Cols[o] = b.Cols[j]
		}
		r.Batches[i] = wide
	}
	return nil
}

// fetchRemote ships one statement to a remote source under the §4.4 cache
// rule (the session hint, enable_remote_cache, and only statements with
// predicates; the adapter enforces remote_cache_validity), counts it, and
// returns its plan node: kind, source and rows, noted when the rows came
// from the remote cache or the fallback cache. A whole shipped statement
// (kind "Remote Query") falls back only to its own last result; a leaf's
// row scan to any that holds its columns.
func (p *planner) fetchRemote(source string, a fed.Adapter, sel *sqlparse.SelectStmt, hasPredicates bool, kind string) (*fed.QueryResult, *exec.PlanNode, error) {
	enabled, validity := p.e.remoteCacheCfg()
	opts := fed.QueryOptions{UseCache: p.useCache && enabled && hasPredicates, Validity: validity}
	res, err := p.e.remoteQuery(p.ctx, source, a, sel, opts, kind == remoteRowScan)
	if err != nil {
		return nil, nil, fmt.Errorf("remote source %s: %w", source, err)
	}
	m := &p.e.Metrics
	m.RemoteQueries.Inc()
	m.RemoteRowsFetched.Add(int64(res.Rows.Len()))
	n := &exec.PlanNode{Op: kind, Object: source, Rows: res.Rows.Len()}
	if res.FromCache {
		m.RemoteCacheHits.Inc()
		n.Notes = append(n.Notes, "remote cache hit")
	}
	if res.FromFallback {
		n.Notes = append(n.Notes, "fallback cache")
	}
	return res, n, nil
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

// realizeScan runs the scan of a local or cold table. The pushed conjuncts
// go to planner.scan, which prunes partitions by their bounds and cold
// chunks by their zone maps. A scan is named by its store, or by the
// strategy a cold read amounts to (coldStrategy).
func (p *planner) realizeScan(r *relation) error {
	ps := r.pend
	l := ps.leaves[0]
	t := l.t
	var pred expr.Expr
	if len(ps.conjs) > 0 {
		var err error
		if pred, err = expr.BindClone(expr.And(expr.CloneAll(ps.conjs)...), r.Schema); err != nil {
			return err
		}
	}
	sc, err := p.scan(t, t.parts, r.Schema, pred, p.needed.Mask(t.meta.Schema))
	if err != nil {
		return err
	}
	r.Batches = sc.batches
	r.node = &exec.PlanNode{Op: "Column Scan", Object: l.name, Rows: r.Len(), Notes: []string{"vectorized"}}
	if len(t.parts) > 0 && t.parts[0].row != nil {
		r.node.Op = "Row Scan"
	}
	filter := "filter: "
	if ps.place != placeLocal {
		p.coldStrategy(r.node, t, sc, ps.conjs)
		filter = "pushed filter: "
	}
	if pred != nil {
		r.node.Attrs = []string{filter + planSQL(pred)}
	}
	return nil
}

// coldStrategy names the scan n of an extended or hybrid table by what it
// read, and counts the strategy that amounts to: hot and cold fragments
// combined are a "Union Plan", cold alone a remote scan or, when IN-list
// values were shipped, a semijoin. A scan that read hot partitions only
// stays a column scan.
func (p *planner) coldStrategy(n *exec.PlanNode, t *storedTable, sc *tableScan, conjs []expr.Expr) {
	inCount := 0
	for _, c := range conjs {
		if in, ok := c.(*expr.In); ok && literalIn(in) != nil {
			inCount += in.Len()
		}
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
	name := t.meta.Name
	shipped := fmt.Sprintf("%d values shipped", inCount)
	scanned := fmt.Sprintf("%d rows scanned", coldRows)
	switch {
	case usedHot && usedCold:
		n.Op, n.Notes = "Union Plan", []string{fmt.Sprintf("hot %d ∪ cold %d rows scanned", hotRows, coldRows)}
		p.e.Metrics.UnionPlansChosen.Inc()
		p.plan.Note("chose union plan for %s: hot %d ∪ cold %d rows", name, hotRows, coldRows)
		if inCount > 0 {
			n.Notes = append(n.Notes, "Semijoin: "+shipped)
			p.e.Metrics.SemiJoinsChosen.Inc()
		}
	case usedCold && inCount > 0:
		n.Op, n.Notes = "Semijoin → Extended Storage", []string{shipped, scanned}
		p.e.Metrics.SemiJoinsChosen.Inc()
		p.plan.Note("chose semijoin → extended storage for %s: %d values shipped", name, inCount)
	case usedCold:
		n.Op, n.Notes = "Remote Scan → Extended Storage", []string{scanned}
		p.e.Metrics.RemoteScansChosen.Inc()
		p.plan.Note("chose remote scan → extended storage for %s: %d rows", name, coldRows)
	}
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
