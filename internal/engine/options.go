package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hana/internal/obs"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

// ExecOption configures one ExecuteContext call.
type ExecOption func(*execOpts)

type execOpts struct {
	params    []value.Value
	tx        *txn.Txn
	width     int
	script    bool
	localOnly bool
	shards    int
}

// distOptKey carries the per-statement distributed-execution override; the
// planner reads it in newPlanner.
type distOptKey struct{}

type distOpt struct {
	localOnly bool
	fanout    int
}

// WithParams binds positional ? parameters to the given values.
// Parameterized remote-materialization keys incorporate the parameter
// values (§4.4: "a hash key is computed from the HiveQL statement,
// parameters, and the host information").
func WithParams(params ...value.Value) ExecOption {
	return func(o *execOpts) { o.params = params }
}

// WithTx runs the statement inside an explicit transaction instead of an
// autonomous one.
func WithTx(tx *txn.Txn) ExecOption {
	return func(o *execOpts) { o.tx = tx }
}

// WithParallelism caps the worker count for this statement's morsel
// dispatches (1 = run everything on the calling goroutine; 0 or unset =
// the engine pool size). The result is identical at any setting: morsel
// boundaries depend only on the data, so parallelism only changes which
// goroutine computes each partial.
func WithParallelism(n int) ExecOption {
	return func(o *execOpts) { o.width = n }
}

// WithScript treats sql as a semicolon-separated script, executing every
// statement and returning the last result.
func WithScript() ExecOption {
	return func(o *execOpts) { o.script = true }
}

// WithShards caps how many shard fragments of this statement are in flight
// at once (0 or unset = all shards at once). The result is identical at any
// setting — the exchange merge restores the serial row order regardless of
// arrival order — so the cap only trades latency for coordinator load. On a
// single-node engine the option is a no-op.
func WithShards(n int) ExecOption {
	return func(o *execOpts) { o.shards = n }
}

// WithLocalOnly pins this statement to the engine node: the planner skips
// distributed fragments even when a topology is configured. Results are
// byte-identical to the distributed plan; the option exists for equivalence
// testing and for statements that must not touch the worker fleet.
func WithLocalOnly() ExecOption {
	return func(o *execOpts) { o.localOnly = true }
}

// ExecStats reports what the executor did for one statement: rows read by
// table-scan morsels, morsels dispatched across all pool runs, and the
// high-water worker count of any single dispatch.
type ExecStats struct {
	RowsScanned int64
	Morsels     int64
	Workers     int64
}

// PartitionCount is one partition's visible-row count, flagging cold
// (extended-storage) partitions.
type PartitionCount struct {
	Cold bool
	Rows int64
}

// ExecuteContext is the engine's core entry point: it parses and runs sql
// with the given options, under a context that cancels morsel workers,
// retry backoffs and remote fetches.
//
// Every call gets a structured QueryTrace: parse, per-statement execution,
// planning, morsel dispatch, remote calls and 2PC phases record spans into
// it through the context, and the finished trace lands in the engine's
// trace ring for M_QUERY_TRACES.
func (e *Engine) ExecuteContext(ctx context.Context, sql string, opts ...ExecOption) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var o execOpts
	for _, fn := range opts {
		fn(&o)
	}
	tr := obs.NewTrace(sql)
	ctx = obs.ContextWithTrace(ctx, tr)
	start := time.Now()
	defer func() {
		tr.Finish(err)
		e.traces.Push(tr)
		e.obs.Counter("exec.statements").Inc()
		e.obs.Histogram("exec.statement_us", nil).Observe(time.Since(start).Microseconds())
		if res != nil {
			e.obs.Counter("exec.rows_scanned").Add(res.Stats.RowsScanned)
			e.obs.Counter("exec.morsels").Add(res.Stats.Morsels)
			e.obs.Gauge("exec.workers_highwater").SetMax(res.Stats.Workers)
		}
	}()
	if o.script {
		ps := tr.StartSpan("parse")
		stmts, perr := sqlparse.ParseAll(sql)
		ps.SetAttrInt("statements", int64(len(stmts)))
		ps.End()
		if perr != nil {
			return nil, perr
		}
		var last *Result
		for _, st := range stmts {
			if last, err = e.execParsed(ctx, st, &o); err != nil {
				return nil, err
			}
		}
		return last, nil
	}
	ps := tr.StartSpan("parse")
	st, perr := sqlparse.Parse(sql)
	ps.End()
	if perr != nil {
		return nil, perr
	}
	return e.execParsed(ctx, st, &o)
}

func (e *Engine) execParsed(ctx context.Context, st sqlparse.Statement, o *execOpts) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.TraceFrom(ctx).StartSpan("stmt")
	defer sp.End()
	sp.SetAttr("type", strings.TrimPrefix(fmt.Sprintf("%T", st), "*sqlparse."))
	ctx = obs.ContextWithSpan(ctx, sp)
	if len(o.params) > 0 {
		var err error
		if st, err = substituteStmtParams(st, o.params); err != nil {
			return nil, err
		}
	}
	if o.localOnly || o.shards > 0 {
		ctx = context.WithValue(ctx, distOptKey{}, distOpt{localOnly: o.localOnly, fanout: o.shards})
	}
	if o.tx != nil {
		return e.execStmtTx(ctx, o.tx, st, o.width)
	}
	return e.execStmt(ctx, st, o.width)
}
