package hive

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/mapreduce"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Executor compiles query blocks into DAGs of map-reduce jobs and runs
// them — the Hive query compiler of §4.4: "the Hive compiler generates a
// DAG of map-reduce jobs corresponding to the federated query".
type Executor struct {
	ms  *Metastore
	mr  *mapreduce.Engine
	seq atomic.Int64
}

// NewExecutor creates an executor.
func NewExecutor(ms *Metastore, mr *mapreduce.Engine) *Executor {
	return &Executor{ms: ms, mr: mr}
}

// interRel is an intermediate relation: an HDFS directory of encoded rows
// plus filters not yet applied.
type interRel struct {
	dir     string
	schema  *value.Schema
	pending []expr.Expr
	temps   []string // temp dirs to clean up
}

func (x *Executor) tmpDir() string {
	return fmt.Sprintf("/tmp/hive-exec/%06d", x.seq.Add(1))
}

// Query parses and executes a statement, returning the result rows.
func (x *Executor) Query(sql string) (*value.Rows, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("hive: %w", err)
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("hive: only SELECT is supported, got %T", st)
	}
	return x.Select(sel)
}

// Select executes one query block.
func (x *Executor) Select(sel *sqlparse.SelectStmt) (*value.Rows, error) {
	rel, transforms, err := x.buildRel(sel)
	if err != nil {
		return nil, err
	}
	defer x.cleanup(rel)
	for _, tf := range transforms {
		rel, err = x.applyTransform(rel, tf)
		if err != nil {
			return nil, err
		}
	}
	return x.finish(sel, rel)
}

func (x *Executor) cleanup(rel *interRel) {
	for _, d := range rel.temps {
		_ = x.ms.cluster.Remove(d)
	}
}

// buildRel plans FROM and WHERE into an intermediate relation plus pending
// subquery transforms.
func (x *Executor) buildRel(sel *sqlparse.SelectStmt) (*interRel, []sqlparse.SubqueryPredicate, error) {
	var pool []expr.Expr
	var transforms []sqlparse.SubqueryPredicate
	for _, c := range expr.SplitConjuncts(sel.Where) {
		if tf, ok := sqlparse.AsSubqueryPredicate(c); ok {
			transforms = append(transforms, tf)
			continue
		}
		pool = append(pool, c)
	}
	rel, err := x.planFrom(sel.From, &pool)
	if err != nil {
		return nil, nil, err
	}
	rel.pending = append(rel.pending, pool...)
	return rel, transforms, nil
}

func (x *Executor) planFrom(te sqlparse.TableExpr, pool *[]expr.Expr) (*interRel, error) {
	switch t := te.(type) {
	case nil:
		return nil, fmt.Errorf("hive: SELECT without FROM is not supported")
	case *sqlparse.TableRef:
		return x.planLeaf(t, pool)
	case *sqlparse.JoinExpr:
		switch t.Type {
		case sqlparse.JoinInner, sqlparse.JoinCross:
			if t.On != nil {
				*pool = append(*pool, expr.SplitConjuncts(t.On)...)
			}
			l, err := x.planFrom(t.L, pool)
			if err != nil {
				return nil, err
			}
			r, err := x.planFrom(t.R, pool)
			if err != nil {
				return nil, err
			}
			return x.joinRels(l, r, pool, false, nil)
		case sqlparse.JoinLeft:
			l, err := x.planFrom(t.L, pool)
			if err != nil {
				return nil, err
			}
			var empty []expr.Expr
			r, err := x.planFrom(t.R, &empty)
			if err != nil {
				return nil, err
			}
			return x.joinRels(l, r, nil, true, t.On)
		default:
			return nil, fmt.Errorf("hive: %s JOIN is not supported", t.Type)
		}
	case *sqlparse.SubqueryTable:
		rows, err := x.Select(t.Sel)
		if err != nil {
			return nil, err
		}
		dir := x.tmpDir()
		if err := x.writeRows(dir, rows.Data); err != nil {
			return nil, err
		}
		return &interRel{dir: dir, schema: rows.Schema.Qualify(t.Alias), temps: []string{dir}}, nil
	}
	return nil, fmt.Errorf("hive: unsupported FROM element %T", te)
}

// planLeaf resolves a base table and pushes its covered filters into a
// map-only scan job.
func (x *Executor) planLeaf(t *sqlparse.TableRef, pool *[]expr.Expr) (*interRel, error) {
	ti, ok := x.ms.Table(t.Name())
	if !ok {
		return nil, fmt.Errorf("hive: table %s not found in metastore", t.Name())
	}
	schema := ti.Schema.Qualify(t.Binding())
	rel := &interRel{dir: ti.Dir, schema: schema}
	var covered []expr.Expr
	rest := (*pool)[:0:0]
	for _, c := range *pool {
		if expr.Covers(schema, c) {
			covered = append(covered, c)
		} else {
			rest = append(rest, c)
		}
	}
	*pool = rest
	if len(covered) == 0 {
		return rel, nil
	}
	// Map-only filter scan.
	pred, err := expr.BindClone(expr.And(expr.CloneAll(covered)...), schema)
	if err != nil {
		return nil, err
	}
	out := x.tmpDir()
	job := &mapreduce.Job{
		Name:   "scan-" + ti.Name,
		Inputs: []string{ti.Dir},
		Output: out,
		Map:    filterMap(schema, pred),
	}
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	if _, err := x.mr.RunCtx(context.Background(), job); err != nil {
		return nil, err
	}
	return &interRel{dir: out, schema: schema, temps: []string{out}}, nil
}

func filterMap(schema *value.Schema, pred expr.Expr) mapreduce.MapFunc {
	dec := &rowPool{schema: schema}
	return func(_, rec string, emit func(k, v string)) error {
		row, err := dec.decode(rec)
		if err != nil {
			return err
		}
		defer dec.release(row)
		ok, err := expr.Truthy(pred, *row)
		if err != nil {
			return err
		}
		if ok {
			emit("", rec)
		}
		return nil
	}
}

// joinRels runs a reduce-side join job.
func (x *Executor) joinRels(l, r *interRel, pool *[]expr.Expr, outer bool, on expr.Expr) (*interRel, error) {
	combined := l.schema.Concat(r.schema)

	var leftKeys, rightKeys []expr.Expr
	var residual []expr.Expr
	consider := func(conjs []expr.Expr) []expr.Expr {
		var rest []expr.Expr
		for _, c := range conjs {
			if lk, rk, ok := equiPair(c, l.schema, r.schema); ok {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
				continue
			}
			if expr.Covers(r.schema, c) && outer {
				// Right-side-only ON conjuncts of an outer join filter the
				// right input before the join.
				r.pending = append(r.pending, c)
				continue
			}
			if expr.Covers(combined, c) {
				residual = append(residual, c)
				continue
			}
			rest = append(rest, c)
		}
		return rest
	}
	if outer {
		consider(expr.SplitConjuncts(on))
	} else if pool != nil {
		*pool = consider(*pool)
	}
	if len(leftKeys) == 0 {
		return nil, fmt.Errorf("hive: join without equality keys is not supported")
	}

	lMap, err := x.sideMapper(tagLeft, l, leftKeys)
	if err != nil {
		return nil, err
	}
	rMap, err := x.sideMapper(tagRight, r, rightKeys)
	if err != nil {
		return nil, err
	}
	var res expr.Expr
	if len(residual) > 0 {
		if res, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), combined); err != nil {
			return nil, err
		}
	}
	out := x.tmpDir()
	job := &mapreduce.Job{
		Name:   "join",
		Output: out,
		TaggedInputs: []mapreduce.TaggedInput{
			{Paths: []string{l.dir}, Map: lMap},
			{Paths: []string{r.dir}, Map: rMap},
		},
		Reduce: joinReduce(l.schema, r.schema, outer, res),
	}
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	if _, err := x.mr.RunCtx(context.Background(), job); err != nil {
		return nil, err
	}
	temps := append(append([]string{}, l.temps...), r.temps...)
	return &interRel{dir: out, schema: combined, temps: append(temps, out)}, nil
}

// Join inputs tag each shuffle value with its side: the tag, then the row.
const (
	tagLeft  = "L"
	tagRight = "R"
)

// sideMapper tags and keys one join input, applying the side's pending
// filters.
func (x *Executor) sideMapper(tag string, rel *interRel, keys []expr.Expr) (mapreduce.MapFunc, error) {
	var pred expr.Expr
	if len(rel.pending) > 0 {
		var err error
		pred, err = expr.BindClone(expr.And(expr.CloneAll(rel.pending)...), rel.schema)
		if err != nil {
			return nil, err
		}
		rel.pending = nil
	}
	bound := make([]expr.Expr, len(keys))
	for i, k := range keys {
		bk, err := expr.BindClone(k, rel.schema)
		if err != nil {
			return nil, err
		}
		bound[i] = bk
	}
	dec := &rowPool{schema: rel.schema}
	return func(_, rec string, emit func(k, v string)) error {
		row, err := dec.decode(rec)
		if err != nil {
			return err
		}
		defer dec.release(row)
		if pred != nil {
			if ok, err := expr.Truthy(pred, *row); err != nil || !ok {
				return err
			}
		}
		var valArr [8]value.Value
		vals := valArr[:0]
		for _, k := range bound {
			v, err := k.Eval(*row)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		emit(EncodeKey(vals), tag+rec)
		return nil
	}, nil
}

// splitSides separates a join key group's tagged values into left and right
// rows, each still encoded.
func splitSides(values []string) (lefts, rights []string) {
	for _, v := range values {
		if v[:1] == tagLeft {
			lefts = append(lefts, v[1:])
		} else {
			rights = append(rights, v[1:])
		}
	}
	return lefts, rights
}

// joinReduce joins one key group. Each row is decoded once: in full when a
// residual predicate reads the combined row, else only checked. An output
// record is its two input records' fields under one column count, not a
// re-encoded row.
func joinReduce(ls, rs *value.Schema, outer bool, residual expr.Expr) mapreduce.ReduceFunc {
	decode := func(rec string, s *value.Schema) (value.Row, error) {
		if residual == nil {
			return nil, decodeInto(nil, rec, s)
		}
		return DecodeRow(rec, s)
	}
	width := ls.Len() + rs.Len()
	nulls := EncodeRow(make(value.Row, rs.Len()))
	return func(key string, values []string, emit func(k, v string)) error {
		lefts, rights := splitSides(values)
		if keyHasNull(key) {
			rights = nil // NULL keys never match
		}
		rrows := make([]value.Row, len(rights))
		for i, rec := range rights {
			row, err := decode(rec, rs)
			if err != nil {
				return err
			}
			rrows[i] = row
		}
		var combined value.Row
		var buf []byte
		for _, lrec := range lefts {
			lrow, err := decode(lrec, ls)
			if err != nil {
				return err
			}
			matched := false
			for i, rrow := range rrows {
				if residual != nil {
					combined = append(append(combined[:0], lrow...), rrow...)
					ok, err := expr.Truthy(residual, combined)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				matched = true
				buf = joinRecords(buf[:0], width, lrec, rights[i])
				emit("", string(buf))
			}
			if outer && !matched {
				buf = joinRecords(buf[:0], width, lrec, nulls)
				emit("", string(buf))
			}
		}
		return nil
	}
}

// joinRecords writes the record of the row a ‖ b, given the two rows'
// checked records: the column count, then each record's fields.
func joinRecords(buf []byte, width int, a, b string) []byte {
	buf = binary.AppendUvarint(buf, uint64(width))
	_, wa := value.Uvarint(a)
	_, wb := value.Uvarint(b)
	return append(append(buf, a[wa:]...), b[wb:]...)
}

// applyTransform runs a semi/anti join MR job for an IN/EXISTS subquery.
func (x *Executor) applyTransform(rel *interRel, tf sqlparse.SubqueryPredicate) (*interRel, error) {
	var outerKeys, innerKeys []expr.Expr
	innerSel := tf.Sel

	if tf.Outer != nil {
		// IN subquery: inner block as written must yield one column.
		outerKeys = []expr.Expr{tf.Outer}
	} else {
		// Correlated EXISTS: extract equality correlation.
		innerSchema, err := x.fromSchemaPreview(tf.Sel.From)
		if err != nil {
			return nil, err
		}
		var remaining []expr.Expr
		for _, c := range expr.SplitConjuncts(tf.Sel.Where) {
			if o, in := corrPair(c, rel.schema, innerSchema); o != nil {
				outerKeys = append(outerKeys, o)
				innerKeys = append(innerKeys, in)
				continue
			}
			remaining = append(remaining, c)
		}
		if len(outerKeys) == 0 {
			return nil, fmt.Errorf("hive: uncorrelated EXISTS is not supported")
		}
		items := make([]sqlparse.SelectItem, len(innerKeys))
		for i, k := range innerKeys {
			items[i] = sqlparse.SelectItem{Expr: expr.Clone(k)}
		}
		innerSel = &sqlparse.SelectStmt{Items: items, From: tf.Sel.From, Where: expr.And(remaining...), Limit: -1}
	}

	innerRows, err := x.Select(innerSel)
	if err != nil {
		return nil, err
	}
	innerDir := x.tmpDir()
	if err := x.writeRows(innerDir, innerRows.Data); err != nil {
		return nil, err
	}
	innerSchema := innerRows.Schema
	innerKeyExprs := make([]expr.Expr, innerSchema.Len())
	for i, c := range innerSchema.Cols {
		k := expr.Col(c.Name)
		k.Ord = i
		innerKeyExprs[i] = k
	}
	if tf.Outer != nil && innerSchema.Len() != 1 {
		return nil, fmt.Errorf("hive: IN subquery must return one column")
	}

	lMap, err := x.sideMapper(tagLeft, rel, outerKeys)
	if err != nil {
		return nil, err
	}
	innerRel := &interRel{dir: innerDir, schema: innerSchema}
	rMap, err := x.sideMapper(tagRight, innerRel, innerKeyExprs)
	if err != nil {
		return nil, err
	}
	// NOT IN: a NULL among the inner keys leaves every row unknown, and a
	// NULL outer key is unknown against any inner key.
	anti, nullAware, innerNull := tf.Anti, tf.NullAware(), false
	for _, r := range innerRows.Data {
		innerNull = innerNull || r[0].IsNull()
	}
	innerEmpty := len(innerRows.Data) == 0
	out := x.tmpDir()
	job := &mapreduce.Job{
		Name:   "semijoin",
		Output: out,
		TaggedInputs: []mapreduce.TaggedInput{
			{Paths: []string{rel.dir}, Map: lMap},
			{Paths: []string{innerDir}, Map: rMap},
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			lefts, rights := splitSides(values)
			if nullAware && (innerNull || keyHasNull(key) && !innerEmpty) {
				return nil
			}
			if hasRight := len(rights) > 0 && !keyHasNull(key); hasRight != anti {
				for _, l := range lefts {
					emit("", l)
				}
			}
			return nil
		},
	}
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	if _, err := x.mr.RunCtx(context.Background(), job); err != nil {
		return nil, err
	}
	temps := append(append([]string{}, rel.temps...), innerDir, out)
	return &interRel{dir: out, schema: rel.schema, temps: temps}, nil
}

func (x *Executor) writeRows(dir string, rows []value.Row) error {
	return x.ms.cluster.WriteFile(dir+"/part-00000", appendRows([]byte(mapreduce.RecordHeader), rows))
}

// fromSchemaPreview resolves the schema a FROM tree produces.
func (x *Executor) fromSchemaPreview(te sqlparse.TableExpr) (*value.Schema, error) {
	switch t := te.(type) {
	case *sqlparse.TableRef:
		ti, ok := x.ms.Table(t.Name())
		if !ok {
			return nil, fmt.Errorf("hive: table %s not found", t.Name())
		}
		return ti.Schema.Qualify(t.Binding()), nil
	case *sqlparse.JoinExpr:
		l, err := x.fromSchemaPreview(t.L)
		if err != nil {
			return nil, err
		}
		r, err := x.fromSchemaPreview(t.R)
		if err != nil {
			return nil, err
		}
		return l.Concat(r), nil
	case *sqlparse.SubqueryTable:
		inner, err := x.fromSchemaPreview(t.Sel.From)
		if err != nil {
			return nil, err
		}
		blk, err := exec.AnalyzeBlock(t.Sel, inner)
		if err != nil {
			return nil, fmt.Errorf("hive: %w", err)
		}
		return blk.Out.Qualify(t.Alias), nil
	}
	return nil, fmt.Errorf("hive: unsupported FROM element %T", te)
}

// helpers

func equiPair(c expr.Expr, ls, rs *value.Schema) (lk, rk expr.Expr, ok bool) {
	b, isBin := c.(*expr.BinOp)
	if !isBin || b.Op != expr.OpEq {
		return nil, nil, false
	}
	if _, lit := b.L.(*expr.Literal); lit {
		return nil, nil, false
	}
	if _, lit := b.R.(*expr.Literal); lit {
		return nil, nil, false
	}
	if expr.Covers(ls, b.L) && expr.Covers(rs, b.R) {
		return b.L, b.R, true
	}
	if expr.Covers(ls, b.R) && expr.Covers(rs, b.L) {
		return b.R, b.L, true
	}
	return nil, nil, false
}

func corrPair(c expr.Expr, outer, inner *value.Schema) (expr.Expr, expr.Expr) {
	b, ok := c.(*expr.BinOp)
	if !ok || b.Op != expr.OpEq {
		return nil, nil
	}
	isOuterSide := func(e expr.Expr) bool {
		cols := expr.Columns(e)
		if len(cols) == 0 {
			return false
		}
		for _, col := range cols {
			if inner.Find(col) >= 0 || outer.Find(col) < 0 {
				return false
			}
		}
		return true
	}
	isInnerSide := func(e expr.Expr) bool {
		cols := expr.Columns(e)
		if len(cols) == 0 {
			return false
		}
		for _, col := range cols {
			if inner.Find(col) < 0 {
				return false
			}
		}
		return true
	}
	if isOuterSide(b.L) && isInnerSide(b.R) {
		return b.L, b.R
	}
	if isOuterSide(b.R) && isInnerSide(b.L) {
		return b.R, b.L
	}
	return nil, nil
}
