package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

func (e *Engine) insert(ctx context.Context, tx *txn.Txn, st *sqlparse.InsertStmt, width int) (*Result, error) {
	t, err := e.table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := t.meta.Schema
	// Map the insert column list to schema ordinals (full schema if absent).
	ords := make([]int, 0, len(st.Cols))
	if len(st.Cols) > 0 {
		for _, c := range st.Cols {
			o := schema.Find(c)
			if o < 0 {
				if t.meta.Flexible {
					// Flexible tables extend their schema on insert (§1
					// "Variety": "extend the schema during insert operations
					// without the need to explicitly trigger DDL").
					o, err = e.extendFlexible(t, c)
					if err != nil {
						return nil, err
					}
				} else {
					return nil, fmt.Errorf("column %s not in table %s", c, st.Table)
				}
			}
			ords = append(ords, o)
		}
	} else {
		for i := range schema.Cols {
			ords = append(ords, i)
		}
	}

	var in []value.Row
	if st.Select != nil {
		res, err := e.query(ctx, tx, st.Select, width)
		if err != nil {
			return nil, err
		}
		in = res.Rows
	}
	for _, exprRow := range st.Values {
		vals := make(value.Row, len(exprRow))
		for i, ex := range exprRow {
			if vals[i], err = ex.Eval(nil); err != nil {
				return nil, fmt.Errorf("INSERT values must be constant: %w", err)
			}
		}
		in = append(in, vals)
	}
	for _, vals := range in {
		if len(vals) != len(ords) {
			return nil, fmt.Errorf("expected %d values, got %d", len(ords), len(vals))
		}
		row := make(value.Row, schema.Len())
		for i := range row {
			row[i] = value.Null
		}
		for i, o := range ords {
			if row[o], err = value.Cast(vals[i], schema.Cols[o].Kind); err != nil {
				return nil, fmt.Errorf("column %s: %w", schema.Cols[o].Name, err)
			}
		}
		if err := t.insertRow(tx, row); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(in)), Message: fmt.Sprintf("%d row(s) inserted", len(in))}, nil
}

// extendFlexible adds a VARCHAR column to a flexible table on the fly. The
// implicit DDL is redo-logged like an explicit ALTER: later insert records
// carry the wider arity, so replay must widen the schema at the same point.
func (e *Engine) extendFlexible(t *storedTable, col string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o := t.meta.Schema.Find(col); o >= 0 {
		return o, nil
	}
	nc := value.Column{Name: col, Kind: value.KindVarchar, Nullable: true}
	if e.wal != nil {
		payload, err := json.Marshal([]value.Column{nc})
		if err != nil {
			return 0, err
		}
		if err := e.logRedoDDL(redoDDLAlter, t.meta.Name, payload); err != nil {
			return 0, fmt.Errorf("logging flexible-schema extension: %w", err)
		}
	}
	if err := t.addColumnLocked(nc); err != nil {
		return 0, err
	}
	return t.meta.Schema.Len() - 1, nil
}

// target identifies one visible row of a table (partition + row id) that a
// DML statement affects.
type target struct {
	p   *partition
	id  int
	row value.Row
}

// collectTargets scans t for the rows visible to tx that where holds for.
// A DELETE needs their ids only, so it reads just the columns where names;
// an UPDATE (withRows) reads every column and gets each survivor's row.
func (e *Engine) collectTargets(ctx context.Context, tx *txn.Txn, t *storedTable, where expr.Expr, width int, withRows bool) ([]target, error) {
	schema := t.meta.Schema
	var bound expr.Expr
	if where != nil {
		var err error
		if bound, err = expr.BindClone(where, schema); err != nil {
			return nil, err
		}
	}
	var needed []bool
	if !withRows {
		needed = make([]bool, schema.Len())
		expr.Walk(bound, func(n expr.Expr) bool {
			if c, ok := n.(*expr.ColRef); ok {
				needed[c.Ord] = true
			}
			return true
		})
	}
	sc, err := e.newPlanner(ctx, tx, nil, width).scan(t, t.parts, schema, bound, needed)
	if err != nil {
		return nil, err
	}
	var out []target
	for i, b := range sc.batches {
		var rows []value.Row
		if withRows {
			rows = b.MaterializeRows()
		}
		for k := 0; k < b.Len(); k++ {
			tg := target{p: sc.parts[i], id: sc.bases[i] + b.RowIndex(k)}
			if withRows {
				tg.row = rows[k]
			}
			out = append(out, tg)
		}
	}
	return out, nil
}

func (e *Engine) delete(ctx context.Context, tx *txn.Txn, st *sqlparse.DeleteStmt, width int) (*Result, error) {
	t, err := e.table(st.Table)
	if err != nil {
		return nil, err
	}
	targets, err := e.collectTargets(ctx, tx, t, st.Where, width, false)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := t.deleteRow(tx, tg.p, tg.id); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(targets)), Message: fmt.Sprintf("%d row(s) deleted", len(targets))}, nil
}

// update is MVCC delete + insert of the modified row (column-store
// semantics; row-store tables share the path for uniformity).
func (e *Engine) update(ctx context.Context, tx *txn.Txn, st *sqlparse.UpdateStmt, width int) (*Result, error) {
	t, err := e.table(st.Table)
	if err != nil {
		return nil, err
	}
	schema := t.meta.Schema
	type setter struct {
		ord int
		ex  func(value.Row) (value.Value, error)
	}
	var setters []setter
	for _, s := range st.Set {
		ord := schema.Find(s.Col)
		if ord < 0 {
			return nil, fmt.Errorf("column %s not in table %s", s.Col, st.Table)
		}
		bex, err := expr.BindClone(s.E, schema)
		if err != nil {
			return nil, err
		}
		kind := schema.Cols[ord].Kind
		setters = append(setters, setter{ord: ord, ex: func(r value.Row) (value.Value, error) {
			v, err := bex.Eval(r)
			if err != nil {
				return value.Null, err
			}
			return value.Cast(v, kind)
		}})
	}
	targets, err := e.collectTargets(ctx, tx, t, st.Where, width, true)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		newRow := tg.row.Clone()
		for _, s := range setters {
			v, err := s.ex(tg.row)
			if err != nil {
				return nil, err
			}
			newRow[s.ord] = v
		}
		// Values are checked before the delete stamp, which the key needs.
		if err := t.checkValues(newRow); err != nil {
			return nil, err
		}
		if err := t.deleteRow(tx, tg.p, tg.id); err != nil {
			return nil, err
		}
		if err := t.insertRow(tx, newRow); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: int64(len(targets)), Message: fmt.Sprintf("%d row(s) updated", len(targets))}, nil
}

// BulkLoad loads rows directly into a table outside transactional DML —
// the direct-load path for extended tables and the generator path for
// benchmarks. Rows become immediately visible. Every row passes the write
// rule before any is logged, and a key repeated within rows is a duplicate
// too, so a refused load stores nothing.
func (e *Engine) BulkLoad(table string, rows []value.Row) error {
	t, err := e.table(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cid := e.mgr.LastCID()
	// Group rows per partition so extended partitions get one bulk write.
	perPart := map[*partition][]value.Row{}
	loaded := keyIndex{} // keys of rows, when keyed
	for _, r := range rows {
		if err := t.checkRowLocked(0, r); err != nil {
			return err
		}
		if t.keys != nil {
			k := r[t.meta.PrimaryKey]
			if err := loaded.find(k, func(keyLoc) error { return duplicateKey(k) }); err != nil {
				return err
			}
			loaded.add(k, nil, 0)
		}
		p, err := t.partitionFor(r)
		if err != nil {
			return err
		}
		perPart[p] = append(perPart[p], r)
	}
	// Apply in partition slice order so the redo-record sequence is
	// deterministic for a given input.
	for _, p := range t.parts {
		rs, ok := perPart[p]
		if !ok {
			continue
		}
		ids, err := t.loadLocked(p, cid, rs)
		if mErr := e.distMirrorLoad(t, ids, rs[:len(ids)], txn.Committed(len(ids), cid)); err == nil {
			err = mErr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loadLocked logs and stores checked rows in p, committed at cid, and
// returns the row ids it stored. A record that cannot be written ends the
// load with every logged row stored, so the log never leads the store; an
// extended partition stores them in one bulk write.
func (t *storedTable) loadLocked(p *partition, cid uint64, rs []value.Row) ([]int, error) {
	base := p.numRows()
	var err error
	for i, r := range rs {
		if err = t.eng.logRedoRow(0, cid, redoInsC, p.idx, base+i, t.meta.Name, r); err == nil && p.ext == nil {
			err = t.storeLocked(p, base+i, r)
		}
		if err != nil {
			rs = rs[:i]
			break
		}
	}
	if p.ext != nil && len(rs) > 0 {
		if bErr := p.ext.BulkLoad(rs); err == nil {
			err = bErr
		}
	}
	ids := make([]int, p.numRows()-base)
	for i := range ids {
		ids[i] = base + i
		if p.ext != nil && t.keys != nil {
			t.keys.add(rs[i][t.meta.PrimaryKey], p, ids[i])
		}
		p.vers.InsertCommitted(ids[i], cid)
	}
	return ids, err
}

// TableRowCount returns the number of visible rows (current snapshot).
func (e *Engine) TableRowCount(table string) (int64, error) {
	parts, err := e.PartitionRowCounts(table)
	var n int64
	for _, p := range parts {
		n += p.Rows
	}
	return n, err
}

// PartitionRowCounts reports visible rows per partition, flagging cold
// partitions — used by examples and the aging bench. Counting needs
// visibility only, so the scan decodes no column.
func (e *Engine) PartitionRowCounts(table string) ([]PartitionCount, error) {
	t, err := e.table(table)
	if err != nil {
		return nil, err
	}
	sc, err := e.newPlanner(nil, nil, nil, 0).scan(t, t.parts, t.meta.Schema, nil, make([]bool, t.meta.Schema.Len()))
	if err != nil {
		return nil, err
	}
	out := make([]PartitionCount, len(t.parts))
	for i, p := range t.parts {
		out[i] = PartitionCount{Cold: p.cold, Rows: int64(sc.visible[i])}
	}
	return out, nil
}
