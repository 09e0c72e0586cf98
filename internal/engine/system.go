package engine

import (
	"fmt"
	"sort"
	"strings"

	"hana/internal/expr"
	"hana/internal/obs"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Monitoring views, exposed as built-in table functions (query with
// SELECT * FROM M_TABLES()): the single-administration-surface idea of §2
// — one interface reports on every component. Each view is a typed
// obs.ViewDef so its column metadata is declared up front and enumerable
// through M_VIEWS().

// installSystemViews registers the M_* view definitions.
func (e *Engine) installSystemViews() {
	defs := []obs.ViewDef{
		{
			Name: "M_TABLES",
			Columns: []value.Column{
				{Name: "table_name", Kind: value.KindVarchar},
				{Name: "placement", Kind: value.KindVarchar},
				{Name: "partitions", Kind: value.KindInt},
				{Name: "row_count", Kind: value.KindInt},
				{Name: "aging_column", Kind: value.KindVarchar},
			},
			Fill: e.mTables,
		},
		{
			Name: "M_REMOTE_SOURCES",
			Columns: []value.Column{
				{Name: "source_name", Kind: value.KindVarchar},
				{Name: "adapter", Kind: value.KindVarchar},
				{Name: "capabilities", Kind: value.KindVarchar},
			},
			Fill: e.mRemoteSources,
		},
		{
			Name: "M_VIRTUAL_TABLES",
			Columns: []value.Column{
				{Name: "table_name", Kind: value.KindVarchar},
				{Name: "source_name", Kind: value.KindVarchar},
				{Name: "remote_object", Kind: value.KindVarchar},
			},
			Fill: e.mVirtualTables,
		},
		{
			Name: "M_FEDERATION_STATISTICS",
			Columns: []value.Column{
				{Name: "metric", Kind: value.KindVarchar},
				{Name: "val", Kind: value.KindInt},
			},
			Fill: e.mFederationStats,
		},
		{
			Name: "M_TRANSACTIONS",
			Columns: []value.Column{
				{Name: "metric", Kind: value.KindVarchar},
				{Name: "val", Kind: value.KindInt},
			},
			Fill: e.mTransactions,
		},
		{
			Name: "M_REMOTE_SOURCE_HEALTH",
			Columns: []value.Column{
				{Name: "source_name", Kind: value.KindVarchar},
				{Name: "breaker_state", Kind: value.KindVarchar},
				{Name: "consecutive_failures", Kind: value.KindInt},
				{Name: "total_failures", Kind: value.KindInt},
				{Name: "times_opened", Kind: value.KindInt},
				{Name: "retries", Kind: value.KindInt},
				{Name: "last_error", Kind: value.KindVarchar},
			},
			Fill: e.mRemoteSourceHealth,
		},
		{
			Name: "M_INDOUBT_TRANSACTIONS",
			Columns: []value.Column{
				{Name: "transaction_id", Kind: value.KindInt},
				{Name: "participant", Kind: value.KindVarchar},
				{Name: "commit_id", Kind: value.KindInt},
				{Name: "decision", Kind: value.KindVarchar},
				{Name: "resolution_attempts", Kind: value.KindInt},
			},
			Fill: e.mInDoubtTransactions,
		},
		{
			Name: "M_VIEWS",
			Columns: []value.Column{
				{Name: "view_name", Kind: value.KindVarchar},
				{Name: "ordinal", Kind: value.KindInt},
				{Name: "column_name", Kind: value.KindVarchar},
				{Name: "column_kind", Kind: value.KindVarchar},
				{Name: "dynamic", Kind: value.KindBool},
			},
			Fill: e.mViews,
		},
		{
			Name: "M_QUERY_TRACES",
			Columns: []value.Column{
				{Name: "trace_id", Kind: value.KindInt},
				{Name: "statement", Kind: value.KindVarchar},
				{Name: "span", Kind: value.KindVarchar},
				{Name: "depth", Kind: value.KindInt},
				{Name: "duration_us", Kind: value.KindInt},
				{Name: "detail", Kind: value.KindVarchar},
				{Name: "error", Kind: value.KindVarchar},
			},
			Fill: e.mQueryTraces,
		},
		{
			Name: "M_RECOVERY",
			Columns: []value.Column{
				{Name: "metric", Kind: value.KindVarchar},
				{Name: "val", Kind: value.KindInt},
				{Name: "detail", Kind: value.KindVarchar},
			},
			Fill: e.mRecovery,
		},
		{
			Name: "M_WAL_STATISTICS",
			Columns: []value.Column{
				{Name: "metric", Kind: value.KindVarchar},
				{Name: "val", Kind: value.KindInt},
				{Name: "detail", Kind: value.KindVarchar},
			},
			Fill: e.mWALStatistics,
		},
		{
			Name: "M_METRICS",
			Columns: []value.Column{
				{Name: "metric", Kind: value.KindVarchar},
				{Name: "kind", Kind: value.KindVarchar},
				{Name: "val", Kind: value.KindInt},
				{Name: "detail", Kind: value.KindVarchar},
			},
			Fill: e.mMetrics,
		},
	}
	for _, def := range defs {
		if err := e.views.Register(def); err != nil {
			panic(fmt.Sprintf("system view %s: %v", def.Name, err))
		}
	}
}

// mRemoteSourceHealth reports per-source circuit-breaker state: the
// operator-facing answer to "is the planner degrading because Hive is
// down, and when will it probe again?".
func (e *Engine) mRemoteSourceHealth(out *value.Rows) error {
	for _, st := range e.health.Snapshot() {
		lastErr := value.Null
		if st.LastError != "" {
			lastErr = value.NewString(st.LastError)
		}
		out.Append(value.Row{
			value.NewString(st.Name),
			value.NewString(st.State.String()),
			value.NewInt(int64(st.ConsecFails)),
			value.NewInt(st.TotalFails),
			value.NewInt(st.Opens),
			value.NewInt(st.Retries),
			lastErr,
		})
	}
	return nil
}

// mInDoubtTransactions lists unresolved 2PC branches with their decided
// commit ID and resolution attempts (§3.1 in-doubt visibility).
func (e *Engine) mInDoubtTransactions(out *value.Rows) error {
	for _, b := range e.mgr.InDoubtInfo() {
		decision := "COMMIT"
		if b.CID == 0 {
			decision = "PRESUMED ABORT"
		}
		out.Append(value.Row{
			value.NewInt(int64(b.TID)),
			value.NewString(b.Participant),
			value.NewInt(int64(b.CID)),
			value.NewString(decision),
			value.NewInt(int64(b.Retries)),
		})
	}
	return nil
}

// mRecovery reports what the last Open/Recover did — 0 rows of work on a
// fresh directory, otherwise the replay summary (savepoint LSN, records
// replayed, torn-tail truncation, outcome counts, remaining in-doubt).
func (e *Engine) mRecovery(out *value.Rows) error {
	r := e.recovery
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	rows := []struct {
		metric string
		val    int64
		detail string
	}{
		{"recovered", flag(r.Recovered), ""},
		{"savepoint_lsn", int64(r.SavepointLSN), ""},
		{"wal_records", int64(r.WALRecords), ""},
		{"data_records", int64(r.DataRecords), ""},
		{"skipped_records", int64(r.SkippedRecords), ""},
		{"torn_tail", flag(r.TornTail), r.TornReason},
		{"committed", int64(r.Committed), ""},
		{"aborted", int64(r.Aborted), ""},
		{"orphaned", int64(r.Orphaned), ""},
		{"in_doubt", int64(r.InDoubt), ""},
		{"last_lsn", int64(r.LastLSN), ""},
	}
	for _, row := range rows {
		detail := value.Null
		if row.detail != "" {
			detail = value.NewString(row.detail)
		}
		out.Append(value.Row{value.NewString(row.metric), value.NewInt(row.val), detail})
	}
	return nil
}

// mWALStatistics surfaces the live WAL counters (durability gap, fsync
// policy, torn tails tolerated) for a durable engine; empty when the engine
// runs without a WAL.
func (e *Engine) mWALStatistics(out *value.Rows) error {
	if e.wal == nil {
		return nil
	}
	s := e.wal.Stats()
	rows := []struct {
		metric string
		val    int64
		detail string
	}{
		{"last_lsn", int64(s.LastLSN), ""},
		{"appends", s.Appends, ""},
		{"bytes", s.Bytes, ""},
		{"syncs", s.Syncs, ""},
		{"torn_tails", s.TornTails, ""},
		{"written_offset", s.WrittenOff, ""},
		{"durable_offset", s.DurableOff, ""},
		{"durability_gap", s.WrittenOff - s.DurableOff, "bytes a crash could lose"},
		{"sync_mode", int64(s.SyncMode), s.SyncMode.String()},
		{"truncations", s.Truncations, ""},
	}
	for _, row := range rows {
		detail := value.Null
		if row.detail != "" {
			detail = value.NewString(row.detail)
		}
		out.Append(value.Row{value.NewString(row.metric), value.NewInt(row.val), detail})
	}
	return nil
}

func (e *Engine) mTables(out *value.Rows) error {
	for _, name := range e.cat.TableNames() {
		meta, _ := e.cat.Table(name)
		n, err := e.TableRowCount(name)
		if err != nil {
			return err
		}
		parts := int64(len(meta.Partitions))
		if parts == 0 {
			parts = 1
		}
		aging := value.Null
		if meta.AgingColumn != "" {
			aging = value.NewString(meta.AgingColumn)
		}
		out.Append(value.Row{
			value.NewString(meta.Name),
			value.NewString(meta.Placement.String()),
			value.NewInt(parts),
			value.NewInt(n),
			aging,
		})
	}
	return nil
}

func (e *Engine) mRemoteSources(out *value.Rows) error {
	e.mu.RLock()
	names := make([]string, 0, len(e.adapters))
	for n := range e.adapters {
		names = append(names, n)
	}
	e.mu.RUnlock()
	sort.Strings(names)
	for _, n := range names {
		a, err := e.adapter(n)
		if err != nil {
			continue
		}
		caps := a.Capabilities().Map()
		var on []string
		for c, v := range caps {
			if v {
				on = append(on, c)
			}
		}
		sort.Strings(on)
		out.Append(value.Row{
			value.NewString(n),
			value.NewString(a.Name()),
			value.NewString(strings.Join(on, ",")),
		})
	}
	return nil
}

func (e *Engine) mVirtualTables(out *value.Rows) error {
	// The catalog does not expose iteration over virtual tables directly;
	// list through known sources' registrations.
	for _, vt := range e.cat.VirtualTableList() {
		out.Append(value.Row{
			value.NewString(vt.Name),
			value.NewString(vt.Source),
			value.NewString(strings.Join(vt.Remote, ".")),
		})
	}
	return nil
}

// mFederationStats serves the federation counters from a registry snapshot
// — a consistent point-in-time read off the lock-free counters, never a
// recomputation under the engine lock.
func (e *Engine) mFederationStats(out *value.Rows) error {
	stats := e.obs.Snapshot()
	for _, name := range fedMetricNames {
		v, _ := stats.Counter(name)
		out.Append(value.Row{
			value.NewString(strings.TrimPrefix(name, "fed.")),
			value.NewInt(v),
		})
	}
	return nil
}

func (e *Engine) mTransactions(out *value.Rows) error {
	out.Append(value.Row{value.NewString("active_transactions"), value.NewInt(int64(e.mgr.ActiveCount()))})
	out.Append(value.Row{value.NewString("last_commit_id"), value.NewInt(int64(e.mgr.LastCID()))})
	out.Append(value.Row{value.NewString("in_doubt_transactions"), value.NewInt(int64(len(e.mgr.InDoubt())))})
	return nil
}

// mViews enumerates every registered view, one row per declared column.
// Every view declares its schema, so the dynamic column is always false.
func (e *Engine) mViews(out *value.Rows) error {
	for _, meta := range e.views.List() {
		for i, col := range meta.Columns {
			out.Append(value.Row{
				value.NewString(meta.Name),
				value.NewInt(int64(i)),
				value.NewString(col.Name),
				value.NewString(col.Kind.String()),
				value.NewBool(false),
			})
		}
	}
	return nil
}

// mQueryTraces renders the trace ring, oldest first: one row per span in
// preorder, so a query's timeline reads top to bottom.
func (e *Engine) mQueryTraces(out *value.Rows) error {
	for _, tr := range e.traces.Snapshot() {
		errv := value.Null
		if msg := tr.Err(); msg != "" {
			errv = value.NewString(msg)
		}
		tr.Walk(func(depth int, s *obs.Span) {
			out.Append(value.Row{
				value.NewInt(int64(tr.ID())),
				value.NewString(tr.Statement()),
				value.NewString(s.Name()),
				value.NewInt(int64(depth)),
				value.NewInt(s.Duration().Microseconds()),
				value.NewString(s.Detail()),
				errv,
			})
		})
	}
	return nil
}

// mMetrics dumps the whole registry — counters, gauges and histograms —
// from one snapshot.
func (e *Engine) mMetrics(out *value.Rows) error {
	stats := e.obs.Snapshot()
	for _, c := range stats.Counters {
		out.Append(value.Row{value.NewString(c.Name), value.NewString("counter"), value.NewInt(c.Value), value.Null})
	}
	for _, g := range stats.Gauges {
		out.Append(value.Row{value.NewString(g.Name), value.NewString("gauge"), value.NewInt(g.Value), value.Null})
	}
	for _, h := range stats.Histograms {
		var parts []string
		for i, b := range h.Bounds {
			parts = append(parts, fmt.Sprintf("le%d=%d", b, h.Counts[i]))
		}
		parts = append(parts, fmt.Sprintf("inf=%d", h.Counts[len(h.Bounds)]))
		detail := fmt.Sprintf("sum=%d %s", h.Sum, strings.Join(parts, " "))
		out.Append(value.Row{value.NewString(h.Name), value.NewString("histogram"), value.NewInt(h.Count), value.NewString(detail)})
	}
	return nil
}

// substituteStmtParams replaces parameter placeholders across the
// statement's expressions.
func substituteStmtParams(st sqlparse.Statement, params []value.Value) (sqlparse.Statement, error) {
	sub := func(ex expr.Expr) (expr.Expr, error) {
		if ex == nil {
			return nil, nil
		}
		return expr.SubstituteParams(ex, params)
	}
	switch s := st.(type) {
	case *sqlparse.SelectStmt:
		out := *s
		var err error
		if out.Where, err = sub(s.Where); err != nil {
			return nil, err
		}
		if out.Having, err = sub(s.Having); err != nil {
			return nil, err
		}
		items := make([]sqlparse.SelectItem, len(s.Items))
		for i, it := range s.Items {
			items[i] = it
			if it.Expr != nil {
				if items[i].Expr, err = sub(it.Expr); err != nil {
					return nil, err
				}
			}
		}
		out.Items = items
		return &out, nil
	case *sqlparse.DeleteStmt:
		out := *s
		var err error
		if out.Where, err = sub(s.Where); err != nil {
			return nil, err
		}
		return &out, nil
	case *sqlparse.UpdateStmt:
		out := *s
		var err error
		if out.Where, err = sub(s.Where); err != nil {
			return nil, err
		}
		set := make([]struct {
			Col string
			E   expr.Expr
		}, len(s.Set))
		for i, sc := range s.Set {
			set[i].Col = sc.Col
			if set[i].E, err = sub(sc.E); err != nil {
				return nil, err
			}
		}
		out.Set = set
		return &out, nil
	case *sqlparse.InsertStmt:
		out := *s
		vals := make([][]expr.Expr, len(s.Values))
		for i, row := range s.Values {
			vals[i] = make([]expr.Expr, len(row))
			for j, ex := range row {
				var err error
				if vals[i][j], err = sub(ex); err != nil {
					return nil, err
				}
			}
		}
		out.Values = vals
		return &out, nil
	}
	return st, nil
}

// ResolveInDoubt exposes manual resolution of an in-doubt transaction
// branch, whichever participants it touched — extended storage, workers or
// both (§3.1: "Clients will have the ability to manually abort these
// 'in-doubt' transactions").
func (e *Engine) ResolveInDoubt(tid uint64, commit bool) error {
	// Resolution stamps version vectors outside commitTxCtx, so it must sit
	// inside the savepoint barrier for the same reason commits do.
	e.spMu.RLock()
	defer e.spMu.RUnlock()
	return e.mgr.Resolve(tid, commit, e.participants())
}
