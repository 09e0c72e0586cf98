package exec

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Block is the analysed back end of one SELECT block: everything SQL puts
// after FROM and WHERE. AnalyzeBlock binds it once against the schema the
// FROM tree produces; the caller runs the aggregate, if the block has one,
// on whichever executor is its own (morsels, shard partials, a map-reduce
// job) and hands the result to Finish for the stages that follow. A Block is
// read-only after analysis, so one Block serves any number of Finish calls.
type Block struct {
	// GroupBy and Aggs, bound to the input schema, are the aggregate the
	// caller runs; AggSchema is the [groups…, aggs…] relation Finish expects
	// back from it. All three are nil when the block does not aggregate, and
	// Finish then takes the input relation itself.
	GroupBy   []expr.Expr
	Aggs      []AggSpec
	AggSchema *value.Schema
	// Having is the bound HAVING predicate over Finish's input (nil = none).
	Having expr.Expr
	// Out is the schema of the rows Finish produces.
	Out *value.Schema

	// exprs project Finish's input onto proj: Out's columns followed by one
	// hidden column per ORDER BY key that is not in the select list. nil
	// exprs (AnalyzeProjected) only relabel the input as Out.
	exprs    []expr.Expr
	proj     *value.Schema
	distinct bool
	keys     []SortKey // bound to proj
	limit    int64     // < 0 = none
}

// AnalyzeBlock analyses sel's select list, GROUP BY, HAVING, DISTINCT, ORDER
// BY and LIMIT over the in schema: stars are expanded, the distinct aggregate
// calls of the select list, HAVING and ORDER BY become Aggs, and all three
// are rewritten to read the aggregate's output columns.
func AnalyzeBlock(sel *sqlparse.SelectStmt, in *value.Schema) (*Block, error) {
	items, err := expandStars(sel.Items, in)
	if err != nil {
		return nil, err
	}
	if err := CheckSubqueries(sel); err != nil {
		return nil, err
	}
	having := sel.Having
	order := make([]expr.Expr, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		order[i] = o.Expr
	}
	b := &Block{distinct: sel.Distinct, limit: sel.Limit}

	needAgg := len(sel.GroupBy) > 0 || (having != nil && expr.HasAggregate(having))
	for _, item := range items {
		needAgg = needAgg || expr.HasAggregate(item.Expr)
	}
	pre, named := in, items // named: the select list as written, for ORDER BY
	if needAgg {
		rewrite, err := b.analyzeAggregate(sel.GroupBy, in, items, having, order)
		if err != nil {
			return nil, err
		}
		rewritten := make([]sqlparse.SelectItem, len(items))
		for i, item := range items {
			rewritten[i] = sqlparse.SelectItem{Expr: rewrite(item.Expr), Alias: item.Alias}
		}
		items = rewritten
		for i, oe := range order {
			order[i] = rewrite(oe)
		}
		having = rewrite(having)
		pre = b.AggSchema
	}

	if having != nil {
		if b.Having, err = expr.BindClone(having, pre); err != nil {
			return nil, err
		}
	}
	b.Out = &value.Schema{}
	b.exprs = make([]expr.Expr, 0, len(items))
	for _, item := range items {
		be, err := expr.BindClone(item.Expr, pre)
		if err != nil {
			return nil, err
		}
		b.exprs = append(b.exprs, be)
		b.Out.Cols = append(b.Out.Cols, value.Column{Name: itemName(item), Kind: ExprKind(item.Expr, pre), Nullable: true})
	}
	b.proj = b.Out

	// An ORDER BY key binds to the output column it names (outputKey); one
	// that names none is evaluated over the projection's input into a hidden
	// column, which Finish drops after the sort.
	for i, o := range sel.OrderBy {
		ord, err := outputKey(o.Expr, named, b.Out)
		if err != nil {
			return nil, err
		}
		key := &expr.ColRef{Ord: ord}
		if ord < 0 {
			be, err := expr.BindClone(order[i], pre)
			if err != nil {
				return nil, fmt.Errorf("ORDER BY: %w", err)
			}
			if b.distinct {
				return nil, fmt.Errorf("DISTINCT with ORDER BY over non-projected columns is not supported")
			}
			if b.proj == b.Out {
				b.proj = b.Out.Clone()
			}
			key.Ord = len(b.exprs)
			b.exprs = append(b.exprs, be)
			b.proj.Cols = append(b.proj.Cols, value.Column{Name: fmt.Sprintf("$sort%d", i), Kind: ExprKind(order[i], pre), Nullable: true})
		}
		key.Name = b.proj.Cols[key.Ord].Name
		b.keys = append(b.keys, SortKey{E: key, Desc: o.Desc})
	}
	return b, nil
}

// CheckSubqueries returns the error of a subquery in sel's select list,
// HAVING or ORDER BY: a processor runs only the subqueries WHERE holds.
func CheckSubqueries(sel *sqlparse.SelectStmt) error {
	clauses := []expr.Expr{sel.Having}
	for _, o := range sel.OrderBy {
		clauses = append(clauses, o.Expr)
	}
	for _, item := range sel.Items {
		clauses = append(clauses, item.Expr)
	}
	for _, c := range clauses {
		if c != nil && len(sqlparse.Subqueries(c)) > 0 {
			return fmt.Errorf("a subquery in the select list, HAVING or ORDER BY is not supported")
		}
	}
	return nil
}

// AnalyzeProjected analyses what is left of sel when another processor has
// already produced its projection (a statement shipped whole to a remote
// source): the result's columns are named after the select list, and ORDER BY
// and LIMIT, which are not shipped, resolve against them.
func AnalyzeProjected(sel *sqlparse.SelectStmt, result *value.Schema) (*Block, error) {
	b := &Block{Out: result, limit: sel.Limit}
	var items []sqlparse.SelectItem // nil when a star's columns shift the items' positions
	if len(sel.Items) == result.Len() {
		b.Out, items = result.Clone(), sel.Items
		for i, item := range sel.Items {
			if !item.Star {
				b.Out.Cols[i].Name = itemName(item)
			}
		}
	}
	b.proj = b.Out
	for _, o := range sel.OrderBy {
		ord, err := outputKey(o.Expr, items, b.Out)
		if err != nil {
			return nil, err
		}
		// No hidden input here: a key that names no output column is an
		// expression over the output columns.
		var key expr.Expr
		if ord >= 0 {
			key = &expr.ColRef{Name: b.Out.Cols[ord].Name, Ord: ord}
		} else if key, err = expr.BindClone(o.Expr, b.Out); err != nil {
			return nil, fmt.Errorf("ORDER BY: %w", err)
		}
		b.keys = append(b.keys, SortKey{E: key, Desc: o.Desc})
	}
	return b, nil
}

// Aggregates reports whether the caller has an aggregate to run before
// Finish.
func (b *Block) Aggregates() bool { return b.AggSchema != nil }

// Finish applies HAVING, the projection, DISTINCT, ORDER BY and LIMIT to the
// aggregate's output (the block's input relation when it does not
// aggregate), batch by batch, and returns batches. HAVING and the projection
// run one input batch at a time; with neither DISTINCT nor ORDER BY, LIMIT
// cuts the batch that crosses it before the projection and no batch is read
// once LIMIT rows are out. DISTINCT narrows each projected batch's selection
// to the rows no earlier row equals. ORDER BY stably sorts the projected
// rows as (batch, row) pairs on their key vectors, LIMIT truncates that
// order, and Out's columns are gathered in it, the hidden sort columns left
// behind. Otherwise LIMIT cuts the projected batches. It checks ctx (nil =
// none) every batch, and returns its error once it is done. plan is the
// plan of in; Finish returns it below a node for each stage it ran (Having,
// Project, Distinct, Sort, Limit), with the rows that stage emitted, or nil
// when plan is nil.
func (b *Block) Finish(ctx context.Context, in Rel, plan *PlanNode) (Rel, *PlanNode, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := Rel{Schema: b.proj, Batches: in.Batches}
	if b.exprs != nil {
		out.Batches = []*value.Batch{}
		early := !b.distinct && len(b.keys) == 0 && b.limit >= 0
		having, n := 0, 0
		for _, bt := range in.Batches {
			if early && int64(n) >= b.limit {
				break
			}
			if err := ctx.Err(); err != nil {
				return Rel{}, nil, err
			}
			if b.Having != nil {
				if err := expr.SelectBatch(b.Having, bt); err != nil {
					return Rel{}, nil, err
				}
			}
			if having += bt.Len(); bt.Len() == 0 {
				continue
			}
			if early {
				cut(bt, int(b.limit)-n)
			}
			pb, err := project(bt, b.exprs, b.proj)
			if err != nil {
				return Rel{}, nil, err
			}
			n += pb.Len()
			out.Batches = append(out.Batches, pb)
		}
		if plan != nil && b.Having != nil {
			plan = Node("Having:", b.Having.SQL(), having, plan)
		}
		if plan != nil {
			plan = Node("Project:", strings.Join(b.Out.Names(), ", "), n, plan)
		}
	}
	if b.distinct {
		if err := distinct(ctx, out.Batches); err != nil {
			return Rel{}, nil, err
		}
		if plan != nil {
			plan = Node("Distinct", "", out.Len(), plan)
		}
	}
	if len(b.keys) > 0 {
		order, err := sortOrder(ctx, out.Batches, b.keys)
		if err != nil {
			return Rel{}, nil, err
		}
		if plan != nil {
			plan = Node("Sort", "", len(order), plan)
		}
		if b.limit >= 0 && int64(len(order)) > b.limit {
			order = order[:b.limit]
		}
		out = gatherOrder(out.Batches, order, b.Out)
	} else if b.limit >= 0 {
		n := int64(0)
		for i, bt := range out.Batches {
			if n >= b.limit {
				out.Batches = out.Batches[:i]
				break
			}
			cut(bt, int(b.limit-n))
			n += int64(bt.Len())
		}
	}
	if err := ctx.Err(); err != nil {
		return Rel{}, nil, err
	}
	if plan != nil && b.limit >= 0 {
		plan = Node("Limit", strconv.FormatInt(b.limit, 10), out.Len(), plan)
	}
	return out, plan, nil
}

// cut narrows bt's selection to its first n live rows.
func cut(bt *value.Batch, n int) {
	switch {
	case bt.Len() <= n:
	case bt.Sel != nil:
		bt.Sel = bt.Sel[:n]
	default:
		bt.Sel = make([]int32, n)
		for k := range bt.Sel {
			bt.Sel[k] = int32(k)
		}
	}
}

// SortKey is one ORDER BY key over a bound expression.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// distinct narrows each batch's selection to the rows that equal no earlier
// row of any batch, all columns compared (value.VecEqual: NULL equals
// NULL). One value.Index over the kept rows' hashes, folded column by
// column (value.HashVec), finds the candidates.
func distinct(ctx context.Context, bs []*value.Batch) error {
	var index value.Index
	var keptBat, keptRow []int32 // entry o is physical row keptRow[o] of bs[keptBat[o]]
	var buf []int32
	var hbuf []uint64
	for bi, bt := range bs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if n := bt.Len(); cap(buf) < n {
			buf, hbuf = make([]int32, n), make([]uint64, n)
		}
		rows := segment{b: bt, hi: bt.Len()}.physRows(buf)
		hs := hbuf[:len(rows)]
		for k := range hs {
			hs[k] = value.KeyHashSeed
		}
		for c := range bt.Cols {
			value.HashVec(hs, &bt.Cols[c], rows, nil)
		}
		sel := make([]int32, 0, len(rows))
		for k, i := range rows {
			w := index.Probe(hs[k])
			o := index.Next(&w)
			for o >= 0 && !rowsEqual(bt, int(i), bs[keptBat[o]], int(keptRow[o])) {
				o = index.Next(&w)
			}
			if o < 0 {
				index.Insert(w)
				keptBat, keptRow = append(keptBat, int32(bi)), append(keptRow, i)
				sel = append(sel, i)
			}
		}
		bt.Sel = sel
	}
	return nil
}

// rowsEqual reports whether physical row i of a and row j of b are equal
// column by column.
func rowsEqual(a *value.Batch, i int, b *value.Batch, j int) bool {
	for c := range a.Cols {
		if !value.VecEqual(&a.Cols[c], i, &b.Cols[c], j) {
			return false
		}
	}
	return true
}

// rowAt is a live row of a relation: live row k of batch b.
type rowAt struct{ b, k int32 }

// sortOrder returns the live rows of bs stably sorted by keys, bound to the
// batches' columns: each key is evaluated over each batch into a vector
// (expr.EvalBatch, a bare column's own when the batch is unfiltered), and
// two rows compare key by key as value.Compare orders the boxed values
// (value.CompareVec).
func sortOrder(ctx context.Context, bs []*value.Batch, keys []SortKey) ([]rowAt, error) {
	nk := len(keys)
	vecs := make([]value.Vec, len(bs)*nk) // batch bi's key j is vecs[bi*nk+j]
	order := make([]rowAt, 0, Rel{Batches: bs}.Len())
	for bi, bt := range bs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j, k := range keys {
			v, err := expr.EvalBatch(k.E, bt)
			if err != nil {
				return nil, err
			}
			vecs[bi*nk+j] = v
		}
		for k := 0; k < bt.Len(); k++ {
			order = append(order, rowAt{int32(bi), int32(k)})
		}
	}
	slices.SortStableFunc(order, func(x, y rowAt) int {
		for j, k := range keys {
			c := value.CompareVec(&vecs[int(x.b)*nk+j], int(x.k), &vecs[int(y.b)*nk+j], int(y.k))
			if c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return order, nil
}

// gatherOrder gathers out's columns, the first of bs's, at the rows of
// order, in order, into batches of at most DefaultMorselSize rows.
func gatherOrder(bs []*value.Batch, order []rowAt, out *value.Schema) Rel {
	from, rows := make([]int32, len(order)), make([]int32, len(order))
	for n, at := range order {
		from[n], rows[n] = at.b, int32(bs[at.b].RowIndex(int(at.k)))
	}
	rel := Rel{Schema: out, Batches: make([]*value.Batch, 0, (len(order)+DefaultMorselSize-1)/DefaultMorselSize)}
	for lo := 0; lo < len(order); lo += DefaultMorselSize {
		hi := min(lo+DefaultMorselSize, len(order))
		ob := &value.Batch{Schema: out, Cols: make([]value.Vec, out.Len()), N: hi - lo}
		for c := range ob.Cols {
			ob.Cols[c].Kind = out.Cols[c].Kind
			value.GatherFrom(&ob.Cols[c], bs, from[lo:hi], rows[lo:hi], c)
		}
		rel.Batches = append(rel.Batches, ob)
	}
	return rel
}

// analyzeAggregate fills GroupBy, Aggs and AggSchema from the group keys and
// the distinct aggregate calls found in items, having and order, and returns
// the rewrite that turns an expression over the block's input into one over
// AggSchema: aggregate calls and group expressions become column references.
func (b *Block) analyzeAggregate(groupBy []expr.Expr, in *value.Schema, items []sqlparse.SelectItem, having expr.Expr, order []expr.Expr) (func(expr.Expr) expr.Expr, error) {
	b.AggSchema = &value.Schema{}
	b.GroupBy = make([]expr.Expr, len(groupBy))
	groups := map[string]bool{} // a group column is named by its expression's SQL
	for i, g := range groupBy {
		bg, err := expr.BindClone(g, in)
		if err != nil {
			return nil, fmt.Errorf("GROUP BY: %w", err)
		}
		b.GroupBy[i] = bg
		groups[g.SQL()] = true
		b.AggSchema.Cols = append(b.AggSchema.Cols, value.Column{Name: g.SQL(), Kind: ExprKind(g, in), Nullable: true})
	}

	seen := map[string]bool{}
	var err error
	collect := func(e expr.Expr) {
		expr.Walk(e, func(n expr.Expr) bool {
			f, ok := n.(*expr.Func)
			if !ok || !f.IsAggregate() {
				return err == nil
			}
			if err != nil || seen[f.SQL()] {
				return false
			}
			spec := AggSpec{Func: f.Name, Distinct: f.Distinct}
			if !f.Star {
				if len(f.Args) != 1 {
					err = fmt.Errorf("aggregate %s expects one argument", f.Name)
					return false
				}
				if spec.Arg, err = expr.BindClone(f.Args[0], in); err != nil {
					return false
				}
			}
			seen[f.SQL()] = true
			b.Aggs = append(b.Aggs, spec)
			b.AggSchema.Cols = append(b.AggSchema.Cols, value.Column{Name: f.SQL(), Kind: ExprKind(f, in), Nullable: true})
			return false
		})
	}
	for _, item := range items {
		collect(item.Expr)
	}
	collect(having)
	for _, oe := range order {
		collect(oe)
	}
	if err != nil {
		return nil, err
	}

	return func(e expr.Expr) expr.Expr {
		return expr.Rewrite(e, func(n expr.Expr) expr.Expr {
			if f, ok := n.(*expr.Func); ok && f.IsAggregate() {
				return expr.Col(f.SQL())
			}
			if groups[n.SQL()] {
				return expr.Col(n.SQL())
			}
			return nil
		})
	}, nil
}

// outputKey resolves an ORDER BY key to the ordinal of the output column
// it names, or -1 when it names none: an integer literal is a 1-based
// position, a bare name is the one output column of that name or alias, and
// an expression is the select item whose text it repeats.
func outputKey(oe expr.Expr, items []sqlparse.SelectItem, out *value.Schema) (int, error) {
	switch n := oe.(type) {
	case *expr.Literal:
		if n.Val.K == value.KindInt {
			if n.Val.I < 1 || n.Val.I > int64(out.Len()) {
				return -1, fmt.Errorf("ORDER BY position %d is not in the select list of %d columns", n.Val.I, out.Len())
			}
			return int(n.Val.I) - 1, nil
		}
	case *expr.ColRef:
		ord := -1
		for i, c := range out.Cols {
			if !strings.Contains(n.Name, ".") && strings.EqualFold(c.Name, n.Name) {
				if ord >= 0 {
					return -1, fmt.Errorf("ORDER BY %s is ambiguous: output columns %d and %d have that name", n.Name, ord+1, i+1)
				}
				ord = i
			}
		}
		if ord >= 0 {
			return ord, nil
		}
	}
	for i, item := range items {
		if item.Expr != nil && item.Expr.SQL() == oe.SQL() {
			return i, nil
		}
	}
	return -1, nil
}

// expandStars replaces * and t.* items with explicit column references.
func expandStars(items []sqlparse.SelectItem, s *value.Schema) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, item := range items {
		if !item.Star {
			out = append(out, item)
			continue
		}
		matched := false
		for _, col := range s.Cols {
			if item.Qual != "" {
				prefix := strings.ToUpper(item.Qual) + "."
				if !strings.HasPrefix(strings.ToUpper(col.Name), prefix) {
					continue
				}
			}
			out = append(out, sqlparse.SelectItem{Expr: expr.Col(col.Name)})
			matched = true
		}
		if !matched {
			return nil, fmt.Errorf("star expansion found no columns for %s.*", item.Qual)
		}
	}
	return out, nil
}

// itemName is the result column name of a select item.
func itemName(item sqlparse.SelectItem) string {
	if item.Alias != "" {
		return item.Alias
	}
	if c, ok := item.Expr.(*expr.ColRef); ok {
		// Unqualify: "customer.c_name" projects as "c_name".
		if dot := strings.LastIndexByte(c.Name, '.'); dot >= 0 {
			return c.Name[dot+1:]
		}
		return c.Name
	}
	return item.Expr.SQL()
}

// ExprKind infers the result kind of an expression over s, for schema
// metadata: the one table every processor declares its columns from.
func ExprKind(e expr.Expr, s *value.Schema) value.Kind {
	switch n := e.(type) {
	case *expr.ColRef:
		if i := s.Find(n.Name); i >= 0 {
			return s.Cols[i].Kind
		}
		return value.KindDouble
	case *expr.Literal:
		return n.Val.K
	case *expr.Cast:
		return n.To
	case *expr.Func:
		switch n.Name {
		case "COUNT":
			return value.KindInt
		case "AVG", "STDDEV", "VAR":
			return value.KindDouble
		case "SUM", "MIN", "MAX":
			if len(n.Args) == 1 {
				return ExprKind(n.Args[0], s)
			}
			return value.KindDouble
		case "YEAR", "MONTH", "DAY", "LENGTH", "MOD", "FLOOR", "CEIL":
			return value.KindInt
		case "UPPER", "LOWER", "SUBSTR", "SUBSTRING", "TRIM", "CONCAT", "TO_VARCHAR":
			return value.KindVarchar
		}
		return value.KindDouble
	case *expr.BinOp:
		if n.Op.Comparison() || n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return value.KindBool
		}
		if n.Op == expr.OpConcat {
			return value.KindVarchar
		}
		lk := ExprKind(n.L, s)
		rk := ExprKind(n.R, s)
		if lk == value.KindInt && rk == value.KindInt && n.Op != expr.OpDiv {
			return value.KindInt
		}
		if lk == value.KindDate {
			return lk
		}
		return value.KindDouble
	case *expr.UnOp:
		if n.Op == expr.OpNot {
			return value.KindBool
		}
		return ExprKind(n.E, s)
	case *expr.Between, *expr.In, *expr.Like, *expr.IsNull:
		return value.KindBool
	case *expr.CaseWhen:
		if len(n.Whens) > 0 {
			return ExprKind(n.Whens[0].Then, s)
		}
	}
	return value.KindDouble
}
