package hive

import (
	"context"

	"fmt"
	"strings"
	"sync"
	"time"

	"hana/internal/fed"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// Server is one "Hive + Hadoop installation": metastore, MR engine and
// executor, addressed by SDA adapters through a host name (the DSN). The
// host name feeds the remote-materialization cache key (§4.4: statement,
// parameters "and the host information").
type Server struct {
	Host string
	MS   *Metastore
	MR   *mapreduce.Engine
	Exec *Executor

	// Stats for benchmarks.
	mu               sync.Mutex
	QueriesRun       int64
	CacheHits        int64
	Materializations int64
}

// NewServer assembles a server.
func NewServer(host string, ms *Metastore, mr *mapreduce.Engine) *Server {
	return &Server{Host: host, MS: ms, MR: mr, Exec: NewExecutor(ms, mr)}
}

// serverRegistry lets CREATE REMOTE SOURCE resolve a DSN to an in-process
// server, standing in for the ODBC connection of the paper.
var (
	registryMu sync.Mutex
	servers    = map[string]*Server{}
)

// RegisterServer publishes a server under its DSN.
func RegisterServer(s *Server) {
	registryMu.Lock()
	defer registryMu.Unlock()
	servers[strings.ToLower(s.Host)] = s
}

// UnregisterServer removes a DSN.
func UnregisterServer(host string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(servers, strings.ToLower(host))
}

func lookupServer(dsn string) (*Server, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	s, ok := servers[strings.ToLower(dsn)]
	if !ok {
		return nil, fmt.Errorf("hive: no server registered for DSN %q", dsn)
	}
	return s, nil
}

// Adapter is the hiveodbc SDA adapter: it ships SQL statements to a Hive
// server and implements the remote-materialization protocol.
type Adapter struct {
	server *Server
}

// NewAdapterFactory returns the factory registered as "hiveodbc".
func NewAdapterFactory() fed.Factory {
	return func(config, credentials map[string]string) (fed.Adapter, error) {
		dsn := config["DSN"]
		if dsn == "" {
			return nil, fmt.Errorf("hiveodbc: CONFIGURATION must contain DSN")
		}
		if credentials != nil && credentials["user"] == "" && len(credentials) > 0 {
			return nil, fmt.Errorf("hiveodbc: credentials must contain user")
		}
		s, err := lookupServer(dsn)
		if err != nil {
			return nil, err
		}
		return &Adapter{server: s}, nil
	}
}

// Name implements fed.Adapter.
func (a *Adapter) Name() string { return "hiveodbc" }

// Capabilities implements fed.Adapter. Hive supports SELECT shipping with
// joins, outer joins, group-by and subqueries but no transactions or DML
// (§4.2: "for Hive and Hadoop only select statements without transactional
// guarantees are supported … CAP_JOINS : true and CAP_JOINS_OUTER : true").
func (a *Adapter) Capabilities() fed.Capabilities {
	return fed.Capabilities{
		Select:      true,
		Joins:       true,
		JoinsOuter:  true,
		GroupBy:     true,
		Subqueries:  true,
		RemoteCache: true,
	}
}

// TableSchema implements fed.Adapter; the last path element is the table.
func (a *Adapter) TableSchema(path []string) (*value.Schema, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("hiveodbc: empty remote path")
	}
	ti, ok := a.server.MS.Table(path[len(path)-1])
	if !ok {
		return nil, fmt.Errorf("hiveodbc: remote table %s not found", strings.Join(path, "."))
	}
	return ti.Schema.Clone(), nil
}

// TableStats implements fed.Adapter using metastore statistics.
func (a *Adapter) TableStats(path []string) (fed.TableStats, bool) {
	if len(path) == 0 {
		return fed.TableStats{}, false
	}
	ti, ok := a.server.MS.Table(path[len(path)-1])
	if !ok {
		return fed.TableStats{}, false
	}
	return fed.TableStats{RowCount: ti.RowCount, Files: ti.Files, Bytes: ti.Bytes}, true
}

// Query implements fed.Adapter: execute the shipped statement, optionally
// through the remote-materialization cache.
func (a *Adapter) Query(sql string, opts fed.QueryOptions) (*fed.QueryResult, error) {
	a.server.mu.Lock()
	a.server.QueriesRun++
	a.server.mu.Unlock()

	if opts.UseCache {
		key := fed.CacheKey(sql, nil, a.server.Host)
		if entry, ok := a.server.MS.CacheLookup(key, opts.Validity, time.Now()); ok {
			rows, err := a.server.MS.ReadTable(entry.TempTable)
			if err == nil {
				a.server.mu.Lock()
				a.server.CacheHits++
				a.server.mu.Unlock()
				return &fed.QueryResult{Rows: rows, FromCache: true}, nil
			}
			// Fall through and recompute if the temp table is damaged.
		}
		rows, err := a.server.Exec.Query(sql)
		if err != nil {
			return nil, err
		}
		// Materialize via two-phase CTAS and register under the key.
		matStart := time.Now()
		tmp := a.server.MS.NewTempTableName()
		if _, err := a.server.MS.CreateTable(tmp, rows.Schema, true); err != nil {
			return nil, err
		}
		if err := a.server.MS.LoadRows(tmp, rows.Data, 2); err != nil {
			_ = a.server.MS.DropTable(tmp)
			return nil, err
		}
		a.server.MS.CacheStore(fed.CacheEntry{
			Key: key, TempTable: tmp, Created: time.Now(), Rows: int64(rows.Len()),
		})
		a.server.mu.Lock()
		a.server.Materializations++
		a.server.mu.Unlock()
		return &fed.QueryResult{Rows: rows, MaterializeTime: time.Since(matStart)}, nil
	}

	rows, err := a.server.Exec.Query(sql)
	if err != nil {
		return nil, err
	}
	return &fed.QueryResult{Rows: rows}, nil
}

// --- hadoop adapter: direct HDFS / map-reduce access (§4.3) ---

// Driver builds a map-reduce job from a virtual-function configuration.
// Implementations are registered under their driver class name.
type Driver func(server *Server, config map[string]string) (*mapreduce.Job, error)

var (
	driverMu sync.Mutex
	drivers  = map[string]Driver{}
)

// RegisterDriver publishes a map-reduce driver class.
func RegisterDriver(class string, d Driver) {
	driverMu.Lock()
	defer driverMu.Unlock()
	drivers[class] = d
}

// HadoopAdapter exposes a Hadoop cluster for CREATE VIRTUAL FUNCTION and
// raw HDFS access, registered as adapter type "hadoop".
type HadoopAdapter struct {
	server *Server
}

// NewHadoopAdapterFactory returns the factory registered as "hadoop". The
// configuration carries webhdfs/webhcatalog endpoints; the host part of
// webhdfs selects the registered server.
func NewHadoopAdapterFactory() fed.Factory {
	return func(config, credentials map[string]string) (fed.Adapter, error) {
		endpoint := config["webhdfs"]
		if endpoint == "" {
			return nil, fmt.Errorf("hadoop: CONFIGURATION must contain webhdfs endpoint")
		}
		host := endpoint
		host = strings.TrimPrefix(host, "http://")
		host = strings.TrimPrefix(host, "https://")
		if i := strings.IndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		s, err := lookupServer(host)
		if err != nil {
			return nil, err
		}
		return &HadoopAdapter{server: s}, nil
	}
}

// Name implements fed.Adapter.
func (h *HadoopAdapter) Name() string { return "hadoop" }

// Capabilities implements fed.Adapter: the raw adapter only invokes jobs.
func (h *HadoopAdapter) Capabilities() fed.Capabilities {
	return fed.Capabilities{Select: true}
}

// TableSchema implements fed.Adapter (shared metastore).
func (h *HadoopAdapter) TableSchema(path []string) (*value.Schema, error) {
	ti, ok := h.server.MS.Table(path[len(path)-1])
	if !ok {
		return nil, fmt.Errorf("hadoop: table %s not found", strings.Join(path, "."))
	}
	return ti.Schema.Clone(), nil
}

// TableStats implements fed.Adapter.
func (h *HadoopAdapter) TableStats(path []string) (fed.TableStats, bool) {
	ti, ok := h.server.MS.Table(path[len(path)-1])
	if !ok {
		return fed.TableStats{}, false
	}
	return fed.TableStats{RowCount: ti.RowCount, Files: ti.Files}, true
}

// Query implements fed.Adapter by delegating to the Hive executor.
func (h *HadoopAdapter) Query(sql string, _ fed.QueryOptions) (*fed.QueryResult, error) {
	rows, err := h.server.Exec.Query(sql)
	if err != nil {
		return nil, err
	}
	return &fed.QueryResult{Rows: rows}, nil
}

// CallFunction implements fed.FunctionAdapter: run the configured
// map-reduce driver and decode its output as text rows under the declared
// schema (ReadText).
func (h *HadoopAdapter) CallFunction(config map[string]string, schema *value.Schema) (*value.Rows, error) {
	class := config["hana.mapred.driver.class"]
	if class == "" {
		return nil, fmt.Errorf("hadoop: configuration must set hana.mapred.driver.class")
	}
	driverMu.Lock()
	d, ok := drivers[class]
	driverMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("hadoop: no driver registered for class %s", class)
	}
	job, err := d(h.server, config)
	if err != nil {
		return nil, err
	}
	//lint:ignore ctxflow fed.Adapter.CallFunction is a context-free boundary; the simulated cluster owns this root
	if _, err := h.server.MR.RunCtx(context.Background(), job); err != nil {
		return nil, err
	}
	defer func() { _ = h.server.MS.Cluster().Remove(job.Output) }()
	return ReadText(h.server.MS.Cluster(), job.Output, schema)
}
