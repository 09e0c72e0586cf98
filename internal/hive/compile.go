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

// interRel is an intermediate relation: an HDFS directory of row records
// plus filters not yet applied. The records are stored under stored; the
// relation is their fields at keep (nil = all), in schema, which is what a
// stage's expressions bind to. A base table's records are read in place, so
// a leaf keeps the columns its statement reads out of the table's; every
// stage writes the kept fields only (written).
type interRel struct {
	dir     string
	stored  *value.Schema
	keep    []int
	schema  *value.Schema
	pending []expr.Expr
	temps   []string // temp dirs to clean up
}

// written is the relation a stage wrote to dir: records of schema's columns.
func written(dir string, schema *value.Schema, temps []string) *interRel {
	return &interRel{dir: dir, stored: schema, schema: schema, temps: temps}
}

// reader reads the relation's records, building the columns need marks
// (nil = all).
func (r *interRel) reader(need []bool) *rowReader { return newRowReader(r.stored, r.keep, need) }

// takePending hands the relation's pending filters, bound as one predicate
// (nil when there are none), to the stage that applies them.
func (r *interRel) takePending() (expr.Expr, error) {
	if len(r.pending) == 0 {
		return nil, nil
	}
	es := r.pending
	r.pending = nil
	return expr.BindClone(expr.And(expr.CloneAll(es)...), r.schema)
}

// reads marks the columns of a width-wide row that the bound expressions
// read.
func reads(width int, es ...expr.Expr) []bool {
	need := make([]bool, width)
	for _, e := range es {
		expr.Walk(e, func(n expr.Expr) bool {
			if c, ok := n.(*expr.ColRef); ok && c.Ord >= 0 && c.Ord < width {
				need[c.Ord] = true
			}
			return true
		})
	}
	return need
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

// Select executes one query block. Its leaves keep only the columns the
// statement reads (sqlparse.ReferencedColumns), so every stage carries those
// alone.
func (x *Executor) Select(sel *sqlparse.SelectStmt) (*value.Rows, error) {
	return x.selectBlock(sel, sqlparse.ReferencedColumns(sel))
}

// selectBlock executes a block of a statement that reads the needed columns:
// FROM and WHERE, then a semi/anti join per subquery predicate, then the
// block's back end.
func (x *Executor) selectBlock(sel *sqlparse.SelectStmt, needed sqlparse.ColumnSet) (*value.Rows, error) {
	run := func(s *sqlparse.SelectStmt) (*value.Rows, error) { return x.selectBlock(s, needed) }
	pool, transforms, err := exec.SplitWhere(sel.Where, run)
	if err != nil {
		return nil, err
	}
	rel, err := x.planFrom(sel.From, &pool, needed)
	if err != nil {
		return nil, err
	}
	rel.pending = append(rel.pending, pool...)
	defer func() { x.cleanup(rel) }() // the last relation's temps hold all before it
	for _, tf := range transforms {
		next, err := x.applyTransform(rel, tf, run)
		if err != nil {
			return nil, err
		}
		rel = next
	}
	return x.finish(sel, rel)
}

func (x *Executor) cleanup(rel *interRel) {
	for _, d := range rel.temps {
		_ = x.ms.cluster.Remove(d)
	}
}

func (x *Executor) planFrom(te sqlparse.TableExpr, pool *[]expr.Expr, needed sqlparse.ColumnSet) (*interRel, error) {
	switch t := te.(type) {
	case nil:
		return nil, fmt.Errorf("hive: SELECT without FROM is not supported")
	case *sqlparse.TableRef:
		return x.planLeaf(t, pool, needed)
	case *sqlparse.JoinExpr:
		switch t.Type {
		case sqlparse.JoinInner, sqlparse.JoinCross:
			if t.On != nil {
				*pool = append(*pool, expr.SplitConjuncts(t.On)...)
			}
			l, err := x.planFrom(t.L, pool, needed)
			if err != nil {
				return nil, err
			}
			r, err := x.planFrom(t.R, pool, needed)
			if err != nil {
				return nil, err
			}
			lk, rk, residual, rest := expr.SplitJoin(*pool, l.schema, r.schema)
			*pool = rest
			return x.joinRels(l, r, lk, rk, residual, false)
		case sqlparse.JoinLeft:
			l, err := x.planFrom(t.L, pool, needed)
			if err != nil {
				return nil, err
			}
			var empty []expr.Expr
			r, err := x.planFrom(t.R, &empty, needed)
			if err != nil {
				return nil, err
			}
			lk, rk, residual, rest := expr.SplitJoin(expr.SplitConjuncts(t.On), l.schema, r.schema)
			// Right-side-only ON conjuncts filter the right input before
			// the join.
			r.pending = append(r.pending, expr.TakeCovered(r.schema, &residual)...)
			return x.joinRels(l, r, lk, rk, append(residual, rest...), true)
		default:
			return nil, fmt.Errorf("hive: %s JOIN is not supported", t.Type)
		}
	case *sqlparse.SubqueryTable:
		rows, err := x.selectBlock(t.Sel, needed)
		if err != nil {
			return nil, err
		}
		dir := x.tmpDir()
		if err := x.writeRows(dir, rows.Data); err != nil {
			return nil, err
		}
		return written(dir, rows.Schema.Qualify(t.Alias), []string{dir}), nil
	}
	return nil, fmt.Errorf("hive: unsupported FROM element %T", te)
}

// planLeaf resolves a base table and keeps the needed columns of it. Its
// covered filters stay pending, so the job that reads the table applies them
// in its map phase, as Hive's TableScan→Filter operators run in the
// consuming task.
func (x *Executor) planLeaf(t *sqlparse.TableRef, pool *[]expr.Expr, needed sqlparse.ColumnSet) (*interRel, error) {
	ti, ok := x.ms.Table(t.Name())
	if !ok {
		return nil, fmt.Errorf("hive: table %s not found in metastore", t.Name())
	}
	rel := &interRel{dir: ti.Dir, stored: ti.Schema.Qualify(t.Binding())}
	rel.schema = rel.stored
	if need := needed.Mask(rel.stored); need != nil {
		rel.keep = []int{}
		rel.schema = &value.Schema{}
		for i, c := range rel.stored.Cols {
			if need[i] {
				rel.keep = append(rel.keep, i)
				rel.schema.Cols = append(rel.schema.Cols, c)
			}
		}
	}
	rel.pending = expr.TakeCovered(rel.schema, pool)
	return rel, nil
}

// scan applies the relation's pending filters in a map-only job that writes
// the kept columns of the rows that pass: Hive's plan for a block only the
// driver reads, as Hive 0.9 has no fetch-task conversion.
func (x *Executor) scan(rel *interRel) (*interRel, error) {
	m, err := stageMapper("", rel, nil)
	if err != nil {
		return nil, err
	}
	out := x.tmpDir()
	if err := x.run(&mapreduce.Job{Name: "scan", Output: out, TaggedInputs: []mapreduce.TaggedInput{{Paths: []string{rel.dir}, Mapper: m}}}); err != nil {
		return nil, err
	}
	return written(out, rel.schema, []string{out}), nil
}

// run runs one job of a query's DAG.
func (x *Executor) run(job *mapreduce.Job) error {
	//lint:ignore ctxflow the hive executor runs behind the context-free fed.Adapter.Query boundary
	_, err := x.mr.RunCtx(context.Background(), job)
	return err
}

// joinRels runs a reduce-side join job on the key pairs, checking the
// residual on each match. Without keys every row shuffles under the one
// empty key, and its reducer forms the cross product filtered by the
// residual, as Hive's single-reducer cross join does.
func (x *Executor) joinRels(l, r *interRel, leftKeys, rightKeys, residual []expr.Expr, outer bool) (*interRel, error) {
	combined := l.schema.Concat(r.schema)
	var res expr.Expr
	if len(residual) > 0 {
		var err error
		if res, err = expr.BindClone(expr.And(expr.CloneAll(residual)...), combined); err != nil {
			return nil, err
		}
	}
	out, err := x.shuffleJoin("join", l, r, leftKeys, rightKeys, joinReduce(l.schema, r.schema, outer, res))
	if err != nil {
		return nil, err
	}
	temps := append(append([]string{}, l.temps...), r.temps...)
	return written(out, combined, append(temps, out)), nil
}

// shuffleJoin runs a reduce-side join job over two relations keyed on the
// key pairs and returns its output directory.
func (x *Executor) shuffleJoin(name string, l, r *interRel, leftKeys, rightKeys []expr.Expr, reduce mapreduce.ReduceFunc) (string, error) {
	lMap, err := stageMapper(tagLeft, l, leftKeys)
	if err != nil {
		return "", err
	}
	rMap, err := stageMapper(tagRight, r, rightKeys)
	if err != nil {
		return "", err
	}
	out := x.tmpDir()
	return out, x.run(&mapreduce.Job{Name: name, Output: out, Reduce: reduce, TaggedInputs: []mapreduce.TaggedInput{
		{Paths: []string{l.dir}, Mapper: lMap},
		{Paths: []string{r.dir}, Mapper: rMap},
	}})
}

// Join inputs tag each shuffle value with its side: the tag, then the row.
const (
	tagLeft  = "L"
	tagRight = "R"
)

// stageMapper is a map stage over rel that applies its pending filters and
// emits, for each record that passes, the tag, then the record of the
// relation's columns. A join side (tagged) is keyed by EncodeKey of its key
// expressions; a scan emits no key.
func stageMapper(tag string, rel *interRel, keys []expr.Expr) (mapreduce.Mapper, error) {
	pred, err := rel.takePending()
	if err != nil {
		return mapreduce.Mapper{}, err
	}
	bound := make([]expr.Expr, len(keys))
	for i, k := range keys {
		if bound[i], err = expr.BindClone(k, rel.schema); err != nil {
			return mapreduce.Mapper{}, err
		}
	}
	rd := rel.reader(reads(rel.schema.Len(), append([]expr.Expr{pred}, bound...)...))
	return mapreduce.Mapper{MapMorsel: func(recs []string, emit func(k, v []byte)) error {
		b, err := rd.filter(recs, pred)
		if err != nil {
			return err
		}
		cols := make([]value.Vec, len(bound))
		for i, k := range bound {
			if cols[i], err = expr.EvalBatch(k, b); err != nil {
				return err
			}
		}
		vals := make([]value.Value, len(bound))
		var key, out []byte
		for k := range b.Len() {
			if tag != "" {
				for i := range cols {
					vals[i] = cols[i].Value(k)
				}
				key = appendKey(key[:0], vals)
			}
			out = rd.project(append(out[:0], tag...), recs[b.RowIndex(k)])
			emit(key, out)
		}
		return nil
	}}, nil
}

// splitSides strips a join key group's tags, in place, and separates its
// values into left and right rows, each still encoded. The shuffle keeps
// split order, and the left input's splits come first, so every left value
// precedes every right one.
func splitSides(values []string) (lefts, rights []string) {
	l := 0
	for i, v := range values {
		if v[:1] == tagLeft {
			l = i + 1
		}
		values[i] = v[1:]
	}
	return values[:l:l], values[l:]
}

// joinReduce joins one key group. Its records are the side mappers'
// projections of records they read, so they are decoded only for a residual
// to read, once per group and only the columns it reads. An output record is
// its two input records' fields under one column count, not a re-encoded
// row.
func joinReduce(ls, rs *value.Schema, outer bool, residual expr.Expr) mapreduce.ReduceFunc {
	lw, rw := ls.Len(), rs.Len()
	need := reads(lw+rw, residual)
	lrd := newRowReader(ls, nil, need[:lw])
	rrd := newRowReader(rs, nil, need[lw:])
	nulls := EncodeRow(make(value.Row, rw))
	return func(key string, values []string, emit func(k, v string)) error {
		lefts, rights := splitSides(values)
		if keyHasNull(key) {
			rights = nil // NULL keys never match
		}
		var lb, rb *value.Batch
		var pair value.Row
		if residual != nil {
			var err error
			if rb, err = rrd.read(rights); err == nil {
				lb, err = lrd.read(lefts)
			}
			if err != nil {
				return err
			}
			pair = make(value.Row, lw+rw)
		}
		var buf []byte
		for i, lrec := range lefts {
			if residual != nil {
				lb.FillRow(i, pair[:lw])
			}
			matched := false
			for j, rrec := range rights {
				if residual != nil {
					rb.FillRow(j, pair[lw:])
					ok, err := expr.Truthy(residual, pair)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				matched = true
				buf = joinRecords(buf[:0], lw+rw, lrec, rrec)
				emit("", string(buf))
			}
			if outer && !matched {
				buf = joinRecords(buf[:0], lw+rw, lrec, nulls)
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

// applyTransform runs a semi/anti join MR job for an IN/EXISTS subquery. An
// uncorrelated EXISTS runs its subquery once instead, and a false one
// leaves the relation a false filter.
func (x *Executor) applyTransform(rel *interRel, tf sqlparse.SubqueryPredicate, run exec.RunBlock) (*interRel, error) {
	outerKeys, innerSel, err := exec.Decorrelate(tf, rel.schema, x.schemaOf)
	if err != nil {
		return nil, err
	}
	if len(outerKeys) == 0 {
		holds, err := exec.ExistsHolds(tf, innerSel, run)
		if err != nil || holds {
			return rel, err
		}
		rel.pending = append(rel.pending, expr.Lit(value.NewBool(false)))
		return rel, nil
	}
	innerRows, err := run(innerSel)
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

	// NOT IN: a NULL among the inner keys leaves every row unknown, and a
	// NULL outer key is unknown against any inner key.
	anti, nullAware, innerNull := tf.Anti, tf.NullAware(), false
	for _, r := range innerRows.Data {
		innerNull = innerNull || r[0].IsNull()
	}
	innerEmpty := len(innerRows.Data) == 0
	out, err := x.shuffleJoin("semijoin", rel, written(innerDir, innerSchema, nil), outerKeys, innerKeyExprs,
		func(key string, values []string, emit func(k, v string)) error {
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
		})
	if err != nil {
		return nil, err
	}
	temps := append(append([]string{}, rel.temps...), innerDir, out)
	return written(out, rel.schema, temps), nil
}

func (x *Executor) writeRows(dir string, rows []value.Row) error {
	return x.ms.cluster.WriteFile(dir+"/part-00000", appendRows([]byte(mapreduce.RecordHeader), rows))
}

// schemaOf is Hive's exec.SchemaOf: a base table's schema from the
// metastore.
func (x *Executor) schemaOf(te sqlparse.TableExpr) (*value.Schema, error) {
	t, ok := te.(*sqlparse.TableRef)
	if !ok {
		return nil, fmt.Errorf("hive: unsupported FROM element %T", te)
	}
	ti, ok := x.ms.Table(t.Name())
	if !ok {
		return nil, fmt.Errorf("hive: table %s not found", t.Name())
	}
	return ti.Schema.Qualify(t.Binding()), nil
}
