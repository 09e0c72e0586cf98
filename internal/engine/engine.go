package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"hana/internal/catalog"
	"hana/internal/diskstore"
	"hana/internal/dist"
	"hana/internal/exec"
	"hana/internal/faults"
	"hana/internal/fed"
	"hana/internal/obs"
	"hana/internal/sqlparse"
	"hana/internal/txn"
	"hana/internal/value"
)

// Config tunes the engine. The remote-cache parameters mirror §4.4:
// enable_remote_cache gates the feature globally and remote_cache_validity
// bounds the age of served materializations.
type Config struct {
	// ExtendedStorageDir is where the extended (IQ) store keeps its files;
	// empty uses an in-process temp directory created lazily on first use.
	ExtendedStorageDir string
	// EnableRemoteCache corresponds to the enable_remote_cache parameter;
	// remote materialization is off by default, as in the paper.
	EnableRemoteCache bool
	// RemoteCacheValidity corresponds to remote_cache_validity.
	RemoteCacheValidity time.Duration
	// SemiJoinThreshold is the maximum estimated row count of a local input
	// for which the optimizer picks the semijoin strategy against a remote
	// or extended relation.
	SemiJoinThreshold int64
	// WAL optionally persists transaction state for recovery.
	WAL *txn.Log
	// DataDir roots the engine's durable state when opened with Open: the
	// WAL (<dir>/wal.log), savepoints (<dir>/sp_<lsn>) and — unless
	// ExtendedStorageDir overrides it — the extended store (<dir>/ext).
	DataDir string
	// WALSync selects the WAL durability policy (fsync never / on commit
	// records / every write / every N writes). The zero value keeps the
	// log's current policy.
	WALSync txn.SyncPolicy
	// CheckpointEvery schedules background savepoints at this interval;
	// zero disables the checkpointer (savepoints still run on demand).
	CheckpointEvery time.Duration
	// Faults routes every remote boundary the engine owns (federated
	// queries, virtual functions, 2PC delivery) through a fault injector;
	// nil disables injection.
	Faults *faults.Injector
	// Retry is the template policy applied to remote boundaries; zero-value
	// fields take the faults package defaults.
	Retry faults.RetryPolicy
	// BreakerThreshold is the consecutive-failure count that opens a remote
	// source's circuit breaker (0 = faults default).
	BreakerThreshold int
	// BreakerCooldown is the open-state duration before a half-open probe
	// (0 = faults default).
	BreakerCooldown time.Duration
	// Parallelism sizes the engine's shared morsel worker pool (intra-query
	// parallelism); 0 uses GOMAXPROCS. The pool is shared by all concurrent
	// statements, so this bounds total executor goroutines, not per-query.
	Parallelism int
	// Obs overrides the engine's observability registry (metrics + system
	// views read from it); nil gives the engine a private registry so
	// instances never share counters.
	Obs *obs.Registry
	// Topology enables distributed execution: with Shards > 1 the engine
	// runs a coordinator plus that many in-process worker nodes, mirrors
	// eligible hot tables onto them hash-sharded, and executes eligible
	// scans, aggregates and joins as shipped fragments. The zero value is
	// single-node. See WithShards / WithLocalOnly for per-statement control.
	Topology dist.Topology
}

// Metrics counts engine activity for the benchmark harness. It is a typed
// facade over the engine's observability registry: each field is a live
// counter handle (registry names "fed.<snake_case>"), so hot-path updates
// are lock-free atomic adds and monitoring reads never contend with query
// execution.
type Metrics struct {
	RemoteQueries      *obs.Counter
	RemoteCacheHits    *obs.Counter
	RemoteRowsFetched  *obs.Counter
	SemiJoinsChosen    *obs.Counter
	UnionPlansChosen   *obs.Counter
	RelocationsChosen  *obs.Counter
	RemoteScansChosen  *obs.Counter
	RemoteRetries      *obs.Counter
	RemoteFallbackHits *obs.Counter
	PlannerFallbacks   *obs.Counter
	InDoubtResolved    *obs.Counter

	// Distributed-execution counters live under "dist.*" registry names and
	// are deliberately not part of fedMetricNames: M_FEDERATION_STATISTICS
	// keeps its pinned row set.
	DistQueries    *obs.Counter // fragment fan-outs executed
	DistFragments  *obs.Counter // worker fragment attempts (incl. failover)
	DistRetries    *obs.Counter // guarded-call retries against workers
	DistFailovers  *obs.Counter // replica switch-overs after a worker failed
	DistRowsMerged *obs.Counter // rows streamed through the exchange merge
}

// fedMetricNames maps MetricsSnapshot fields to registry counter names, in
// the display order M_FEDERATION_STATISTICS uses.
var fedMetricNames = []string{
	"fed.remote_queries",
	"fed.remote_cache_hits",
	"fed.remote_rows_fetched",
	"fed.semijoins_chosen",
	"fed.union_plans_chosen",
	"fed.relocations_chosen",
	"fed.remote_scans_chosen",
	"fed.remote_retries",
	"fed.remote_fallback_hits",
	"fed.planner_fallbacks",
	"fed.in_doubt_resolved",
}

func newMetrics(r *obs.Registry) Metrics {
	return Metrics{
		RemoteQueries:      r.Counter("fed.remote_queries"),
		RemoteCacheHits:    r.Counter("fed.remote_cache_hits"),
		RemoteRowsFetched:  r.Counter("fed.remote_rows_fetched"),
		SemiJoinsChosen:    r.Counter("fed.semijoins_chosen"),
		UnionPlansChosen:   r.Counter("fed.union_plans_chosen"),
		RelocationsChosen:  r.Counter("fed.relocations_chosen"),
		RemoteScansChosen:  r.Counter("fed.remote_scans_chosen"),
		RemoteRetries:      r.Counter("fed.remote_retries"),
		RemoteFallbackHits: r.Counter("fed.remote_fallback_hits"),
		PlannerFallbacks:   r.Counter("fed.planner_fallbacks"),
		InDoubtResolved:    r.Counter("fed.in_doubt_resolved"),
		DistQueries:        r.Counter("dist.queries"),
		DistFragments:      r.Counter("dist.fragments"),
		DistRetries:        r.Counter("dist.retries"),
		DistFailovers:      r.Counter("dist.failovers"),
		DistRowsMerged:     r.Counter("dist.rows_merged"),
	}
}

// MetricsSnapshot is a point-in-time copy of the counters.
type MetricsSnapshot struct {
	RemoteQueries      int64
	RemoteCacheHits    int64
	RemoteRowsFetched  int64
	SemiJoinsChosen    int64
	UnionPlansChosen   int64
	RelocationsChosen  int64
	RemoteScansChosen  int64
	RemoteRetries      int64
	RemoteFallbackHits int64
	PlannerFallbacks   int64
	InDoubtResolved    int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		RemoteQueries:      m.RemoteQueries.Load(),
		RemoteCacheHits:    m.RemoteCacheHits.Load(),
		RemoteRowsFetched:  m.RemoteRowsFetched.Load(),
		SemiJoinsChosen:    m.SemiJoinsChosen.Load(),
		UnionPlansChosen:   m.UnionPlansChosen.Load(),
		RelocationsChosen:  m.RelocationsChosen.Load(),
		RemoteScansChosen:  m.RemoteScansChosen.Load(),
		RemoteRetries:      m.RemoteRetries.Load(),
		RemoteFallbackHits: m.RemoteFallbackHits.Load(),
		PlannerFallbacks:   m.PlannerFallbacks.Load(),
		InDoubtResolved:    m.InDoubtResolved.Load(),
	}
}

// Engine is one database instance — the "SAP HANA core database engine" of
// the platform, orchestrating the in-memory stores, the extended storage
// and federated remote sources behind a single SQL interface.
type Engine struct {
	// spMu is the savepoint barrier (outermost lock): commit, rollback and
	// in-doubt resolution hold it shared for the whole decide-and-stamp
	// region, so a savepoint (exclusive) never exports version vectors with
	// a commit record at LSN ≤ S whose stamps are still in flight.
	spMu sync.RWMutex

	mu       sync.RWMutex
	cfg      Config
	cat      *catalog.Catalog
	mgr      *txn.Manager
	registry *fed.Registry
	adapters map[string]fed.Adapter // keyed by upper-case source name
	tables   map[string]*storedTable
	ext      *diskstore.Store
	extDir   string
	pool     *exec.Pool

	wal        *txn.Log // redo/commit log (nil = durability off)
	ownWAL     bool     // Open created the log; Close closes it
	dataDir    string   // savepoint root ("" = savepoints unavailable)
	recovering bool     // buildStoredTable: adopt stored cold rows; recovery decides which live
	recovery   RecoveryInfo

	ckptStop chan struct{} // closes to stop the background checkpointer
	ckptDone chan struct{}

	health *fed.Health
	caller fed.Caller // guarded-call seam for federated boundaries
	now    func() time.Time

	fbMu     sync.Mutex
	fallback map[string][]*fallbackEntry

	obs    *obs.Registry     // observability registry (metrics)
	views  *obs.ViewRegistry // typed M_* system-view registry
	traces *obs.TraceRing    // last N finished query traces

	dist *distRuntime // scale-out runtime (nil = single-node)

	// Metrics is exported for benchmarks and monitoring.
	Metrics Metrics
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.SemiJoinThreshold == 0 {
		cfg.SemiJoinThreshold = 1024
	}
	if cfg.RemoteCacheValidity == 0 {
		cfg.RemoteCacheValidity = time.Hour
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		cfg:      cfg,
		cat:      catalog.New(),
		mgr:      txn.NewManager(cfg.WAL),
		registry: fed.NewRegistry(),
		adapters: map[string]fed.Adapter{},
		tables:   map[string]*storedTable{},
		pool:     exec.NewPool(cfg.Parallelism),
		health:   fed.NewHealth(cfg.BreakerThreshold, cfg.BreakerCooldown),
		now:      time.Now,
		fallback: map[string][]*fallbackEntry{},
		obs:      reg,
		views:    obs.NewViewRegistry(),
		traces:   obs.NewTraceRing(obs.DefaultTraceRingSize),
	}
	if cfg.WAL != nil {
		e.wal = cfg.WAL
		e.wal.SetInjector(cfg.Faults)
		e.wal.SetObs(reg)
		if cfg.WALSync != (txn.SyncPolicy{}) {
			e.wal.SetSyncPolicy(cfg.WALSync)
		}
	}
	e.Metrics = newMetrics(reg)
	e.caller = &fed.GuardedCall{
		Health:  e.health,
		Retry:   cfg.Retry,
		Faults:  cfg.Faults,
		OnRetry: func() { e.Metrics.RemoteRetries.Inc() },
	}
	// Mirror breaker state into the registry so monitoring pollers read
	// gauges instead of locking every breaker.
	e.health.SetObserver(func(st faults.BreakerStats) {
		pfx := "fed.breaker." + st.Name + "."
		reg.Gauge(pfx + "state").Set(int64(st.State))
		reg.Gauge(pfx + "consec_fails").Set(int64(st.ConsecFails))
		reg.Gauge(pfx + "total_fails").Set(st.TotalFails)
		reg.Gauge(pfx + "opens").Set(st.Opens)
		reg.Gauge(pfx + "retries").Set(st.Retries)
	})
	e.mgr.SetInjector(cfg.Faults)
	e.initDist()
	e.installSystemViews()
	return e
}

// Obs exposes the engine's observability registry.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// Views exposes the typed system-view registry.
func (e *Engine) Views() *obs.ViewRegistry { return e.views }

// Traces exposes the retained query traces (M_QUERY_TRACES backing ring).
func (e *Engine) Traces() *obs.TraceRing { return e.traces }

// RegisterView publishes a typed system view: the schema is declared once
// in the definition, the view becomes queryable as name() and enumerable
// via M_VIEWS().
func (e *Engine) RegisterView(def obs.ViewDef) error { return e.views.Register(def) }

// Health exposes the per-remote-source circuit breakers.
func (e *Engine) Health() *fed.Health { return e.health }

// SetClock replaces the engine's clock (breaker cooldowns and fallback-
// cache validity) for deterministic tests.
func (e *Engine) SetClock(now func() time.Time) {
	e.mu.Lock()
	e.now = now
	e.mu.Unlock()
	e.health.SetClock(now)
}

func (e *Engine) clock() func() time.Time {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.now
}

// Catalog exposes the metadata registry.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// TxnManager exposes the transaction coordinator.
func (e *Engine) TxnManager() *txn.Manager { return e.mgr }

// Registry exposes the SDA adapter registry so adapter packages (Hive,
// Hadoop) can be plugged in.
func (e *Engine) Registry() *fed.Registry { return e.registry }

// Config returns a snapshot of the engine configuration. It takes the
// engine lock so concurrent Set* mutations are never observed half-written.
func (e *Engine) Config() Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg
}

// remoteCacheCfg reads the runtime-mutable remote-cache parameters under
// the engine lock (SetRemoteCache/SetRemoteCacheValidity may race with
// in-flight queries otherwise).
func (e *Engine) remoteCacheCfg() (bool, time.Duration) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg.EnableRemoteCache, e.cfg.RemoteCacheValidity
}

// semiJoinThreshold reads the optimizer threshold under the engine lock.
func (e *Engine) semiJoinThreshold() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cfg.SemiJoinThreshold
}

// SetRemoteCache toggles the enable_remote_cache parameter at runtime.
func (e *Engine) SetRemoteCache(enabled bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.EnableRemoteCache = enabled
}

// SetRemoteCacheValidity adjusts remote_cache_validity at runtime.
func (e *Engine) SetRemoteCacheValidity(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cfg.RemoteCacheValidity = d
}

// ExtendedStore returns the extended storage, initializing it on first use.
func (e *Engine) ExtendedStore() (*diskstore.Store, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.extStoreLocked()
}

func (e *Engine) extStoreLocked() (*diskstore.Store, error) {
	if e.ext != nil {
		return e.ext, nil
	}
	dir := e.cfg.ExtendedStorageDir
	if dir == "" {
		dir = fmt.Sprintf("%s/hana-extstore-%d", tempDir(), time.Now().UnixNano())
	}
	s, err := diskstore.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("extended storage: %w", err)
	}
	e.ext = s
	e.extDir = dir
	return s, nil
}

// Result is the outcome of one statement.
type Result struct {
	Schema   *value.Schema
	Rows     []value.Row
	Affected int64
	Message  string
	Plan     string          // EXPLAIN output
	Stats    ExecStats       // executor statistics (queries)
	Trace    *obs.QueryTrace // EXPLAIN TRACE: the recorded span timeline
}

// execStmt runs one parsed statement autonomously: DML gets its own
// transaction, committed on success.
func (e *Engine) execStmt(ctx context.Context, st sqlparse.Statement, width int) (*Result, error) {
	switch s := st.(type) {
	case *sqlparse.SelectStmt:
		return e.query(ctx, nil, s, width)
	case *sqlparse.ExplainStmt:
		return e.explain(ctx, s, width)
	case *sqlparse.CreateTableStmt:
		return e.createTable(s)
	case *sqlparse.AlterTableStmt:
		return e.alterTable(s)
	case *sqlparse.DropStmt:
		return e.drop(s)
	case *sqlparse.CreateRemoteSourceStmt:
		return e.createRemoteSource(s)
	case *sqlparse.CreateVirtualTableStmt:
		return e.createVirtualTable(s)
	case *sqlparse.CreateVirtualFunctionStmt:
		return e.createVirtualFunction(s)
	case *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		tx := e.Begin()
		res, err := e.execStmtTx(ctx, tx, st, width)
		if err != nil {
			_ = e.Rollback(tx)
			return nil, err
		}
		if err := e.commitTxCtx(ctx, tx); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, fmt.Errorf("unsupported statement %T", st)
}

// Begin starts an explicit transaction.
func (e *Engine) Begin() *txn.Txn { return e.mgr.Begin() }

// CommitTxContext commits the transaction, stamping MVCC versions after the
// two-phase commit succeeds. It runs under the caller's context, so 2PC
// phases land in the query trace and a canceled caller aborts the retry
// backoff of slow participants.
func (e *Engine) CommitTxContext(ctx context.Context, tx *txn.Txn) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return e.commitTxCtx(ctx, tx)
}

// commitTxCtx commits under the statement's trace context, so 2PC phases
// land in the query trace. The whole decide-and-stamp region runs
// under the shared savepoint barrier: a savepoint that observes the commit
// record also observes its version stamps.
func (e *Engine) commitTxCtx(ctx context.Context, tx *txn.Txn) error {
	e.spMu.RLock()
	defer e.spMu.RUnlock()
	_, err := e.mgr.CommitCtx(ctx, tx)
	if err != nil && tx.State() == txn.StateAborted {
		// The coordinator aborts the participants that prepared, not the one
		// that voted no nor those after it: revert their stamps too.
		for _, p := range e.participants() {
			_ = p.Abort(tx.TID)
		}
	}
	return err
}

// Rollback aborts the transaction.
func (e *Engine) Rollback(tx *txn.Txn) error {
	e.spMu.RLock()
	defer e.spMu.RUnlock()
	return e.mgr.Abort(tx)
}

// execStmtTx runs a parsed DML/SELECT statement inside a transaction.
func (e *Engine) execStmtTx(ctx context.Context, tx *txn.Txn, st sqlparse.Statement, width int) (*Result, error) {
	switch s := st.(type) {
	case *sqlparse.SelectStmt:
		return e.query(ctx, tx, s, width)
	case *sqlparse.InsertStmt:
		return e.insert(ctx, tx, s, width)
	case *sqlparse.UpdateStmt:
		return e.update(ctx, tx, s, width)
	case *sqlparse.DeleteStmt:
		return e.delete(ctx, tx, s, width)
	}
	return nil, fmt.Errorf("statement %T not allowed in a transaction", st)
}

// table resolves a runtime table.
func (e *Engine) table(name string) (*storedTable, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("table %s not found", name)
	}
	return t, nil
}

// adapter resolves the adapter instance behind a remote source name.
func (e *Engine) adapter(source string) (fed.Adapter, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a, ok := e.adapters[strings.ToUpper(source)]
	if !ok {
		return nil, fmt.Errorf("remote source %s not connected", source)
	}
	return a, nil
}

func tempDir() string { return "/tmp" }
