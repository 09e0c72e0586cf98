package engine

import (
	"context"

	"encoding/json"
	"fmt"
	"strings"

	"hana/internal/catalog"
	"hana/internal/colstore"
	"hana/internal/expr"
	"hana/internal/rowstore"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

func (e *Engine) createTable(st *sqlparse.CreateTableStmt) (*Result, error) {
	schema := &value.Schema{}
	pk := -1
	for i, cd := range st.Cols {
		schema.Cols = append(schema.Cols, value.Column{
			Name:     cd.Name,
			Kind:     cd.Kind,
			Nullable: !cd.NotNull,
		})
		if cd.PrimKey {
			if pk >= 0 {
				return nil, fmt.Errorf("multiple primary key columns are not supported")
			}
			pk = i
		}
	}
	meta := &catalog.TableMeta{
		Name:        st.Name,
		Schema:      schema,
		Flexible:    st.Flexible,
		AgingColumn: st.AgingColumn,
		PrimaryKey:  pk,
	}
	switch st.Storage {
	case sqlparse.StorageRow:
		meta.Placement = catalog.PlacementRow
	case sqlparse.StorageExtended:
		meta.Placement = catalog.PlacementExtended
	default:
		meta.Placement = catalog.PlacementColumn
	}
	if len(st.Partitions) > 0 {
		meta.Placement = catalog.PlacementHybrid
		meta.PartitionBy = st.PartitionBy
		if schema.Find(st.PartitionBy) < 0 {
			return nil, fmt.Errorf("partition column %s not in table schema", st.PartitionBy)
		}
		for _, pd := range st.Partitions {
			pm := catalog.PartitionMeta{Others: pd.Others, Cold: pd.Storage == sqlparse.StorageExtended}
			if pd.Bound != nil {
				v, err := pd.Bound.Eval(nil)
				if err != nil {
					return nil, fmt.Errorf("partition bound must be a literal: %w", err)
				}
				pm.UpperBound = v
			}
			meta.Partitions = append(meta.Partitions, pm)
		}
	}
	if st.AgingColumn != "" {
		ord := schema.Find(st.AgingColumn)
		if ord < 0 {
			return nil, fmt.Errorf("aging column %s not in table schema", st.AgingColumn)
		}
		if meta.Placement != catalog.PlacementHybrid {
			return nil, fmt.Errorf("WITH AGING requires a hybrid (partitioned) table")
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cat.Table(st.Name); ok {
		if st.IfNotExists {
			return &Result{Message: fmt.Sprintf("table %s already exists", st.Name)}, nil
		}
		return nil, fmt.Errorf("table %s already exists", st.Name)
	}
	// Write-ahead: log the create before any physical state exists, so a
	// crash between the record and registration replays to the same (empty)
	// table instead of leaving redo records against a missing catalog entry.
	if e.wal != nil {
		payload, err := marshalTableMeta(meta)
		if err != nil {
			return nil, err
		}
		if err := e.logRedoDDL(redoDDLCreate, meta.Name, payload); err != nil {
			return nil, fmt.Errorf("logging create: %w", err)
		}
	}
	t, err := e.buildStoredTable(meta)
	if err != nil {
		return nil, err
	}
	if err := e.cat.AddTable(meta); err != nil {
		return nil, err
	}
	e.tables[strings.ToUpper(st.Name)] = t
	e.distRegister(t)
	return &Result{Message: fmt.Sprintf("created %s table %s", meta.Placement, st.Name)}, nil
}

// buildStoredTable allocates the physical partitions for a catalog entry.
// Caller holds e.mu.
func (e *Engine) buildStoredTable(meta *catalog.TableMeta) (*storedTable, error) {
	t := &storedTable{eng: e, meta: meta}
	t.part2pc = &extParticipant{name: "extstore:" + meta.Name, t: t}
	mk := func(pm catalog.PartitionMeta, cold bool, suffix string) (*partition, error) {
		p := &partition{meta: pm, cold: cold, vers: txn.NewRowVersions()}
		switch {
		case cold:
			store, err := e.extStoreLocked()
			if err != nil {
				return nil, err
			}
			name := meta.Name + suffix
			ext, ok := store.Table(name)
			if ok && !e.recovering {
				// A leftover of an earlier engine: the version vectors that
				// said which of its rows live died with that engine, so the
				// new table starts empty. Crash recovery adopts the rows
				// instead; the savepoint and the WAL say which are live.
				if err := store.DropTable(name); err != nil {
					return nil, err
				}
				ok = false
			}
			if !ok {
				ext, err = store.CreateTable(name, meta.Schema)
				if err != nil {
					return nil, err
				}
			}
			p.ext = ext
		case meta.Placement == catalog.PlacementRow:
			p.row = rowstore.NewTable(meta.Schema.Clone(), meta.PrimaryKey)
		default:
			p.hot = colstore.NewTable(meta.Schema.Clone())
		}
		return p, nil
	}

	switch meta.Placement {
	case catalog.PlacementHybrid:
		for i, pm := range meta.Partitions {
			p, err := mk(pm, pm.Cold, fmt.Sprintf("$p%d", i))
			if err != nil {
				return nil, err
			}
			p.idx = i
			t.parts = append(t.parts, p)
		}
	case catalog.PlacementExtended:
		p, err := mk(catalog.PartitionMeta{Others: true, Cold: true}, true, "")
		if err != nil {
			return nil, err
		}
		t.parts = append(t.parts, p)
	default:
		p, err := mk(catalog.PartitionMeta{Others: true}, false, "")
		if err != nil {
			return nil, err
		}
		t.parts = append(t.parts, p)
	}
	return t, nil
}

// ageRow appends an aged row to the cold partition its key routes it to,
// or to cold when the key routes it to a hot one.
func (t *storedTable) ageRow(tx *txn.Txn, cold *partition, row value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if routed, err := t.partitionFor(row); err == nil && routed.cold {
		cold = routed
	}
	return t.appendLocked(tx, cold, row)
}

// alterTable adds columns to a table: the hybrid-table concept includes
// uniform schema modification across hot and cold fragments (§3.1: "the
// extended storage technique supports schema modifications like any other
// table in SAP HANA").
func (e *Engine) alterTable(st *sqlparse.AlterTableStmt) (*Result, error) {
	t, err := e.table(st.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Validate everything before logging or mutating: the redo record must
	// describe an alter that will apply cleanly during replay too.
	var added []value.Column
	for _, cd := range st.Add {
		if t.meta.Schema.Find(cd.Name) >= 0 {
			return nil, fmt.Errorf("column %s already exists in %s", cd.Name, st.Table)
		}
		if cd.NotNull {
			return nil, fmt.Errorf("ALTER TABLE ADD cannot add NOT NULL column %s to populated table", cd.Name)
		}
		if t.meta.Placement == catalog.PlacementRow {
			return nil, fmt.Errorf("row-store tables do not support ALTER TABLE ADD")
		}
		added = append(added, value.Column{Name: cd.Name, Kind: cd.Kind, Nullable: !cd.NotNull})
	}
	if e.wal != nil && len(added) > 0 {
		payload, err := json.Marshal(added)
		if err != nil {
			return nil, err
		}
		if err := e.logRedoDDL(redoDDLAlter, t.meta.Name, payload); err != nil {
			return nil, fmt.Errorf("logging alter: %w", err)
		}
	}
	for _, col := range added {
		if err := t.addColumnLocked(col); err != nil {
			return nil, err
		}
	}
	if len(added) > 0 {
		// Schema changed: re-register drops the workers' copies, so rebuild
		// the shard mirrors under the table lock we already hold.
		if err := e.distReseedLocked(t); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("altered table %s (+%d column(s))", st.Table, len(st.Add))}, nil
}

func (e *Engine) drop(st *sqlparse.DropStmt) (*Result, error) {
	switch st.Kind {
	case "TABLE":
		e.mu.Lock()
		defer e.mu.Unlock()
		key := strings.ToUpper(st.Name)
		t, ok := e.tables[key]
		if !ok {
			if st.IfExists {
				return &Result{Message: "nothing to drop"}, nil
			}
			return nil, fmt.Errorf("table %s not found", st.Name)
		}
		// Write-ahead: without a durable drop record, replay would rebuild
		// the table from its earlier create and insert records.
		if err := e.logRedoDDL(redoDDLDrop, t.meta.Name, nil); err != nil {
			return nil, fmt.Errorf("logging drop: %w", err)
		}
		e.dropColdLocked(t)
		delete(e.tables, key)
		e.distDrop(st.Name)
		_ = e.cat.DropTable(st.Name)
	case "REMOTE SOURCE":
		if err := e.cat.DropSource(st.Name); err != nil {
			if st.IfExists {
				return &Result{Message: "nothing to drop"}, nil
			}
			return nil, err
		}
		e.mu.Lock()
		delete(e.adapters, strings.ToUpper(st.Name))
		e.mu.Unlock()
	case "VIRTUAL TABLE":
		if err := e.cat.DropVirtualTable(st.Name); err != nil && !st.IfExists {
			return nil, err
		}
	case "VIRTUAL FUNCTION":
		if err := e.cat.DropVirtualFunction(st.Name); err != nil && !st.IfExists {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unsupported DROP %s", st.Kind)
	}
	return &Result{Message: fmt.Sprintf("dropped %s %s", strings.ToLower(st.Kind), st.Name)}, nil
}

func (e *Engine) createRemoteSource(st *sqlparse.CreateRemoteSourceStmt) (*Result, error) {
	src := &catalog.RemoteSource{
		Name:           st.Name,
		Adapter:        st.Adapter,
		Configuration:  catalog.ParseProps(st.Configuration),
		CredentialType: st.CredentialType,
		Credentials:    catalog.ParseProps(st.Credentials),
	}
	a, err := e.registry.Open(st.Adapter, src.Configuration, src.Credentials)
	if err != nil {
		return nil, err
	}
	if err := e.cat.AddSource(src); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.adapters[strings.ToUpper(st.Name)] = a
	e.mu.Unlock()
	return &Result{Message: fmt.Sprintf("created remote source %s (adapter %s)", st.Name, st.Adapter)}, nil
}

func (e *Engine) createVirtualTable(st *sqlparse.CreateVirtualTableStmt) (*Result, error) {
	a, err := e.adapter(st.Source)
	if err != nil {
		return nil, err
	}
	schema, err := a.TableSchema(st.Remote)
	if err != nil {
		return nil, fmt.Errorf("resolving remote object %s: %w", strings.Join(st.Remote, "."), err)
	}
	vt := &catalog.VirtualTable{
		Name:   st.Name,
		Source: st.Source,
		Remote: st.Remote,
		Schema: schema,
	}
	if err := e.cat.AddVirtualTable(vt); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created virtual table %s at %s", st.Name, strings.Join(st.Remote, "."))}, nil
}

func (e *Engine) createVirtualFunction(st *sqlparse.CreateVirtualFunctionStmt) (*Result, error) {
	if _, err := e.adapter(st.Source); err != nil {
		return nil, err
	}
	schema := &value.Schema{}
	for _, cd := range st.Returns {
		schema.Cols = append(schema.Cols, value.Column{Name: cd.Name, Kind: cd.Kind, Nullable: !cd.NotNull})
	}
	vf := &catalog.VirtualFunction{
		Name:          st.Name,
		Source:        st.Source,
		Returns:       schema,
		Configuration: catalog.ParseProps(st.Configuration),
	}
	if err := e.cat.AddVirtualFunction(vf); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("created virtual function %s at %s", st.Name, st.Source)}, nil
}

// Analyze collects optimizer statistics (row counts and q-error
// histograms) for a table, like an ANALYZE/UPDATE STATISTICS command.
func (e *Engine) Analyze(table string) error {
	t, err := e.table(table)
	if err != nil {
		return err
	}
	sc, err := e.newPlanner(nil, nil, nil, 0).scan(t, t.parts, t.meta.Schema, nil, nil)
	if err != nil {
		return err
	}
	n := 0
	for _, b := range sc.batches {
		n += b.Len()
	}
	stats := catalog.TableStats{
		RowCount:   int64(n),
		Histograms: map[string]*catalog.Histogram{},
	}
	for c, col := range t.meta.Schema.Cols {
		vals := make([]value.Value, 0, n)
		for _, b := range sc.batches {
			for k := 0; k < b.Len(); k++ {
				vals = append(vals, b.Cols[c].Value(b.RowIndex(k)))
			}
		}
		stats.Histograms[strings.ToUpper(col.Name)] = catalog.BuildHistogram(vals, 2, 64)
	}
	t.meta.Stats = stats
	return nil
}

// RunAgingContext implements the hybrid-table aging mechanism of §3.1: rows
// in hot partitions whose aging-flag column is true move to the first cold
// partition that accepts them. The move runs as one distributed
// transaction spanning the in-memory store and the extended storage; ctx
// bounds the commit.
func (e *Engine) RunAgingContext(ctx context.Context, table string) (int64, error) {
	t, err := e.table(table)
	if err != nil {
		return 0, err
	}
	if t.meta.AgingColumn == "" {
		return 0, fmt.Errorf("table %s has no aging column", table)
	}
	cold := t.firstCold()
	if cold == nil {
		return 0, fmt.Errorf("table %s has no cold partition", table)
	}
	var hot []*partition
	for _, p := range t.parts {
		if !p.cold && p.hot != nil {
			hot = append(hot, p)
		}
	}
	flagged, err := expr.BindClone(expr.Eq(expr.Col(t.meta.AgingColumn), expr.Lit(value.NewBool(true))), t.meta.Schema)
	if err != nil {
		return 0, err
	}
	tx := e.Begin()
	sc, err := e.newPlanner(ctx, tx, nil, 0).scan(t, hot, t.meta.Schema, flagged, nil)
	if err != nil {
		_ = e.Rollback(tx)
		return 0, err
	}
	var moved int64
	for i, b := range sc.batches {
		for k, row := range b.MaterializeRows() {
			if err := t.deleteRow(tx, sc.parts[i], sc.bases[i]+b.RowIndex(k)); err != nil {
				_ = e.Rollback(tx)
				return 0, err
			}
			if err := t.ageRow(tx, cold, row); err != nil {
				_ = e.Rollback(tx)
				return 0, err
			}
			moved++
		}
	}
	if err := e.CommitTxContext(ctx, tx); err != nil {
		return 0, err
	}
	return moved, nil
}
