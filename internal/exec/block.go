package exec

import (
	"fmt"
	"sort"
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
	exprs []expr.Expr
	proj  *value.Schema
	// needed marks the columns of Finish's input that Having and exprs read
	// (nil = all): a row-backed input's other columns are not turned into
	// vectors.
	needed   []bool
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
	pre := in
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

	// An ORDER BY key names an output column (by alias, or by repeating the
	// item's text); one that does not is evaluated over the projection's
	// input into a hidden column, which Finish drops after the sort.
	for i, o := range sel.OrderBy {
		key, err := outputKey(order[i], items, b.Out)
		if err != nil {
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
			hidden := expr.Col(fmt.Sprintf("$sort%d", i))
			hidden.Ord = len(b.exprs)
			b.exprs = append(b.exprs, be)
			b.proj.Cols = append(b.proj.Cols, value.Column{Name: hidden.Name, Kind: ExprKind(order[i], pre), Nullable: true})
			key = hidden
		}
		b.keys = append(b.keys, SortKey{E: key, Desc: o.Desc})
	}
	if ords := neededFillOrds(append(b.exprs[:len(b.exprs):len(b.exprs)], b.Having)); ords != nil {
		b.needed = make([]bool, pre.Len())
		for _, o := range ords {
			b.needed[o] = true
		}
	}
	return b, nil
}

// AnalyzeProjected analyses what is left of sel when another processor has
// already produced its projection (a statement shipped whole to a remote
// source): the result's columns are named after the select list, and ORDER BY
// and LIMIT, which are not shipped, resolve against them.
func AnalyzeProjected(sel *sqlparse.SelectStmt, result *value.Schema) (*Block, error) {
	b := &Block{Out: result, limit: sel.Limit}
	if len(sel.Items) == result.Len() {
		b.Out = result.Clone()
		for i, item := range sel.Items {
			if !item.Star {
				b.Out.Cols[i].Name = itemName(item)
			}
		}
	}
	b.proj = b.Out
	for _, o := range sel.OrderBy {
		key, err := outputKey(o.Expr, sel.Items, b.Out)
		if err != nil {
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
// aggregate) and drops the hidden sort columns. HAVING, the projection and
// boxing run one input batch at a time; with neither DISTINCT nor ORDER BY
// no batch is read once LIMIT rows are out.
func (b *Block) Finish(in Rel) (*value.Rows, error) {
	var rows []value.Row
	if b.exprs == nil {
		rows = in.AllRows()
	} else {
		early := !b.distinct && len(b.keys) == 0 && b.limit >= 0
		for i := 0; !early || int64(len(rows)) < b.limit; i++ {
			bt := in.batch(i, b.needed)
			if bt == nil {
				break
			}
			if b.Having != nil {
				if err := expr.SelectBatch(b.Having, bt); err != nil {
					return nil, err
				}
			}
			if bt.Len() == 0 {
				continue
			}
			pb, err := project(bt, b.exprs, b.proj)
			if err != nil {
				return nil, err
			}
			rows = append(rows, pb.MaterializeRows()...)
		}
	}
	if b.distinct {
		rows = distinctRows(rows, b.proj.Len())
	}
	if len(b.keys) > 0 {
		if err := sortRows(rows, b.keys); err != nil {
			return nil, err
		}
	}
	if b.limit >= 0 && int64(len(rows)) > b.limit {
		// A copy: the result must not keep the rows past the limit alive.
		rows = append([]value.Row(nil), rows[:b.limit]...)
	}
	if w := b.Out.Len(); b.proj != b.Out {
		for i, r := range rows {
			rows[i] = r[:w:w]
		}
	}
	return &value.Rows{Schema: b.Out, Data: rows}, nil
}

// SortKey is one ORDER BY key over a bound expression.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// sortRows stably sorts rows in place by keys.
func sortRows(rows []value.Row, keys []SortKey) error {
	type keyed struct {
		row  value.Row
		keys []value.Value
	}
	ks := make([]keyed, len(rows))
	slab := make([]value.Value, len(rows)*len(keys))
	for i, r := range rows {
		kv := slab[i*len(keys) : (i+1)*len(keys)]
		for j, k := range keys {
			v, err := k.E.Eval(r)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ks[i] = keyed{row: r, keys: kv}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, k := range keys {
			c := value.Compare(ks[a].keys[j], ks[b].keys[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i, k := range ks {
		rows[i] = k.row
	}
	return nil
}

// distinctRows drops repeated rows of the given width in place (full-row
// comparison), keeping each first occurrence in order.
func distinctRows(rows []value.Row, width int) []value.Row {
	ords := ordinals(width)
	seen := map[uint64][]value.Row{}
	kept := rows[:0]
	for _, r := range rows {
		h := r.Hash(ords)
		dup := false
		for _, prev := range seen[h] {
			if r.EqualAt(prev, ords, ords) {
				dup = true
				break
			}
		}
		if !dup {
			seen[h] = append(seen[h], r)
			kept = append(kept, r)
		}
	}
	return kept
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

// outputKey binds an ORDER BY expression to the projection's output: the
// text of a select item stands for that item's column (ORDER BY SUM(x) when
// SUM(x) is also projected), anything else must bind by name.
func outputKey(oe expr.Expr, items []sqlparse.SelectItem, out *value.Schema) (expr.Expr, error) {
	for _, item := range items {
		if item.Expr != nil && item.Expr.SQL() == oe.SQL() {
			oe = expr.Col(itemName(item))
			break
		}
	}
	return expr.BindClone(oe, out)
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
