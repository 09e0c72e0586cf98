package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"hana/internal/expr"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/obs"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

// This file is the engine's resilience layer for remote boundaries: every
// shipped federated query and virtual-function call goes through a
// per-source circuit breaker and a retry policy, with a validity-bounded
// fallback cache of the last good result (§4.4 reads remote caching as a
// freshness/availability trade the user opts into; here the same trade
// keeps queries answerable while a source is down). The in-doubt resolver
// at the bottom retries 2PC phase-2 delivery until the branches drain
// (§3.1 integrated recovery).

// fallbackEntry is the last good result of one shipped statement. cols
// names its columns when the statement keys without its select list
// (fallbackKey); nil means it serves only the statement it came from.
type fallbackEntry struct {
	sql     string
	cols    []string
	rows    *value.Rows
	created time.Time
}

// remoteQuery ships one statement to a remote source through the shared
// guarded caller (breaker + retry + fault site + "remote" span). While the
// source's breaker is open — or once retries are exhausted on a transient
// failure — a still-valid fallback-cache entry for the statement is served
// instead, marked FromFallback: with cover set, any entry of the same FROM
// and WHERE that holds the statement's columns (fallbackLookup).
func (e *Engine) remoteQuery(ctx context.Context, source string, a fed.Adapter, sel *sqlparse.SelectStmt, opts fed.QueryOptions, cover bool) (*fed.QueryResult, error) {
	target := strings.ToUpper(source)
	site := "fed.query." + strings.ToLower(source)
	sql := sqlparse.RenderSelect(sel)
	key, cols := fallbackKey(source, sel)
	var res *fed.QueryResult
	err := e.caller.Call(ctx, target, "query", site, func() error {
		r, err := a.Query(sql, opts)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		// Fatal adapter errors mean the source answered and said no; only
		// unavailability (open breaker, exhausted transient retries) falls
		// back to the last good result.
		if errors.Is(err, faults.ErrCircuitOpen) || faults.IsTransient(err) {
			if fb, ok := e.fallbackLookup(key, sql, cols, cover); ok {
				obs.SpanFrom(ctx).Note("remote source %s down, served from fallback cache", target)
				return fb, nil
			}
		}
		return nil, err
	}
	e.fallbackStore(key, sql, cols, res)
	return res, nil
}

// remoteCall invokes a virtual function through the shared guarded caller.
// Remote jobs have no cached materialization to fall back to, so an open
// breaker or exhausted retries surface as the classified error.
func (e *Engine) remoteCall(ctx context.Context, source string, fa fed.FunctionAdapter, config map[string]string, schema *value.Schema) (*value.Rows, error) {
	target := strings.ToUpper(source)
	site := "fed.call." + strings.ToLower(source)
	var rows *value.Rows
	err := e.caller.Call(ctx, target, "call", site, func() error {
		r, err := fa.CallFunction(config, schema)
		if err != nil {
			return err
		}
		rows = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// fallbackKey reuses the §4.4 cache-key derivation: statement + source.
// A statement whose select list only names columns — no alias, aggregate,
// DISTINCT, ORDER BY or LIMIT — keys without that list, and its upper-cased
// column names come back beside the key, unqualified when FROM is one table:
// an entry of the same FROM and WHERE holding those columns can serve it.
// Any other statement keys whole, with nil names.
func fallbackKey(source string, sel *sqlparse.SelectStmt) (string, []string) {
	source = strings.ToUpper(source)
	_, single := sel.From.(*sqlparse.TableRef)
	cols := make([]string, 0, len(sel.Items))
	for _, it := range sel.Items {
		c, ok := it.Expr.(*expr.ColRef)
		if !ok || it.Alias != "" {
			cols = nil
			break
		}
		name := c.Name
		if i := strings.LastIndexByte(name, '.'); i >= 0 && single {
			name = name[i+1:]
		}
		cols = append(cols, strings.ToUpper(name))
	}
	if cols == nil || sel.Distinct || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.OrderBy) > 0 || sel.Limit >= 0 {
		return fed.CacheKey(sqlparse.RenderSelect(sel), nil, source), nil
	}
	rest := *sel
	rest.Items = nil
	return fed.CacheKey(sqlparse.RenderSelect(&rest), nil, source), cols
}

// fallbackStore keeps a deep copy of the last good result, replacing the
// statement's previous one. Rows must be cloned because conformRows casts
// result values in place downstream.
func (e *Engine) fallbackStore(key, sql string, cols []string, res *fed.QueryResult) {
	if res == nil || res.Rows == nil || res.FromFallback {
		return
	}
	ent := &fallbackEntry{sql: sql, cols: cols, rows: cloneRows(res.Rows, nil), created: e.clock()()}
	e.fbMu.Lock()
	defer e.fbMu.Unlock()
	ents := slices.DeleteFunc(e.fallback[key], func(old *fallbackEntry) bool { return old.sql == sql })
	e.fallback[key] = append(ents, ent)
}

// fallbackLookup serves the newest entry of the key that is still inside
// the remote_cache_validity window and answers the statement: its own last
// result, or, when cover is set, any entry holding its columns, projected to
// them.
func (e *Engine) fallbackLookup(key, sql string, cols []string, cover bool) (*fed.QueryResult, bool) {
	_, validity := e.remoteCacheCfg()
	now := e.clock()()
	var ent *fallbackEntry
	var pick []int
	e.fbMu.Lock()
	ents := e.fallback[key]
	for i := len(ents) - 1; i >= 0 && ent == nil; i-- {
		switch p, ok := pickColumns(ents[i].cols, cols); {
		case validity > 0 && now.Sub(ents[i].created) > validity:
		case ents[i].sql == sql:
			ent = ents[i]
		case cover && ok:
			ent, pick = ents[i], p
		}
	}
	e.fbMu.Unlock()
	if ent == nil {
		return nil, false
	}
	e.Metrics.RemoteFallbackHits.Inc()
	return &fed.QueryResult{Rows: cloneRows(ent.rows, pick), FromFallback: true}, true
}

// pickColumns finds each wanted column among an entry's columns: their
// ordinals, and whether all were found. Nil lists — statements keyed
// whole — find nothing.
func pickColumns(have, want []string) ([]int, bool) {
	if have == nil || want == nil {
		return nil, false
	}
	pick := make([]int, len(want))
	for i, w := range want {
		pick[i] = slices.Index(have, w)
		if pick[i] < 0 {
			return nil, false
		}
	}
	return pick, true
}

// cloneRows deep-copies a row set: the columns at pick, or all of them when
// pick is nil.
func cloneRows(rows *value.Rows, pick []int) *value.Rows {
	if pick == nil {
		pick = make([]int, rows.Schema.Len())
		for i := range pick {
			pick[i] = i
		}
	}
	schema := &value.Schema{Cols: make([]value.Column, len(pick))}
	for i, o := range pick {
		schema.Cols[i] = rows.Schema.Cols[o]
	}
	out := value.NewRows(schema)
	for _, r := range rows.Data {
		c := make(value.Row, len(pick))
		for i, o := range pick {
			c[i] = r[o]
		}
		out.Append(c)
	}
	return out
}

// participants lists every 2PC participant of the engine: each table's
// extended-storage participant in table order, then each worker. It is
// derived on each call, so nothing has to follow CREATE, DROP or a reseed.
func (e *Engine) participants() []txn.Participant {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []txn.Participant
	for _, t := range e.sortedTables() {
		out = append(out, t.part2pc)
	}
	if e.dist != nil {
		for i := 0; i < e.dist.transport.Workers(); i++ {
			out = append(out, e.dist.transport.Worker(i))
		}
	}
	return out
}

// ResolveAllInDoubt is the engine-level in-doubt resolver: it delivers the
// logged decision of every in-doubt branch to every participant, retrying
// each with the configured backoff, until the branches drain or a branch
// stays unresolvable. The decision is commit when a commit ID was durably
// allocated, and presumed abort otherwise (branches surfaced by crash
// recovery before the decision point).
func (e *Engine) ResolveAllInDoubt() error {
	// Resolution stamps version vectors outside commitTxCtx, so it must sit
	// inside the savepoint barrier for the same reason commits do.
	e.spMu.RLock()
	defer e.spMu.RUnlock()
	parts := e.participants()
	var errs []error
	for _, b := range e.mgr.InDoubtInfo() {
		commit := b.CID != 0
		tid := b.TID
		err := e.cfg.Retry.Do(fmt.Sprintf("txn.resolve.%d", tid), func() error {
			return e.mgr.Resolve(tid, commit, parts)
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("transaction %d: %w", tid, err))
			continue
		}
		e.Metrics.InDoubtResolved.Inc()
	}
	return errors.Join(errs...)
}
