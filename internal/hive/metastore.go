package hive

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hana/internal/exec"
	"hana/internal/fed"
	"hana/internal/hdfs"
	"hana/internal/mapreduce"
	"hana/internal/value"
)

// TableInfo is one metastore entry: schema, warehouse location and the
// statistics the paper's federated optimizer reads ("the row count and
// number of files used for a table").
type TableInfo struct {
	Name     string
	Schema   *value.Schema
	Dir      string
	RowCount int64
	Files    int
	Bytes    int64
	Temp     bool // CTAS temporary table (remote materialization target)
}

// Metastore is the Hive metastore plus the remote-materialization cache
// registry of §4.4.
type Metastore struct {
	mu      sync.RWMutex
	cluster *hdfs.Cluster
	root    string // warehouse root, e.g. /warehouse
	tables  map[string]*TableInfo
	cache   map[string]fed.CacheEntry
	nextTmp int

	// invalidateOnLoad drops all materializations when base data changes —
	// the conservative stance for "when the tables in Hive are being
	// frequently updated" (§4.4). Off by default: the paper's default
	// freshness control is the validity window.
	invalidateOnLoad bool
}

// SetInvalidateCacheOnLoad toggles cache invalidation on base-table loads.
func (m *Metastore) SetInvalidateCacheOnLoad(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.invalidateOnLoad = on
}

// NewMetastore creates a metastore over the cluster.
func NewMetastore(cluster *hdfs.Cluster, warehouseRoot string) *Metastore {
	if warehouseRoot == "" {
		warehouseRoot = "/warehouse"
	}
	cluster.MkdirAll(warehouseRoot)
	return &Metastore{
		cluster: cluster,
		root:    warehouseRoot,
		tables:  map[string]*TableInfo{},
		cache:   map[string]fed.CacheEntry{},
	}
}

// Cluster exposes the underlying HDFS.
func (m *Metastore) Cluster() *hdfs.Cluster { return m.cluster }

// CreateTable registers a table with an empty warehouse directory. This is
// phase one of the two-phase CTAS: "first the schema resulting from the
// SELECT part is created, and then the target table is created [and
// filled]".
func (m *Metastore) CreateTable(name string, schema *value.Schema, temp bool) (*TableInfo, error) {
	m.mu.Lock()
	key := strings.ToUpper(name)
	if _, ok := m.tables[key]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("hive: table %s already exists", name)
	}
	ti := &TableInfo{
		Name:   name,
		Schema: schema.Clone(),
		Dir:    m.root + "/" + strings.ToLower(name),
		Temp:   temp,
	}
	m.tables[key] = ti
	m.mu.Unlock()
	// Create the warehouse directory after releasing the metastore lock:
	// MkdirAll is an HDFS (namenode) round-trip and must not run under a
	// local metadata mutex (lock class hive.Metastore.mu must not nest
	// hdfs.Cluster.mu — see internal/lint/lockrank.go). The entry is
	// published first; MkdirAll is idempotent, so a concurrent writer
	// racing the mkdir at worst re-creates the same directory.
	m.cluster.MkdirAll(ti.Dir)
	return ti, nil
}

// Table resolves a table (case-insensitive).
func (m *Metastore) Table(name string) (*TableInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ti, ok := m.tables[strings.ToUpper(name)]
	return ti, ok
}

// DropTable removes a table and its files.
func (m *Metastore) DropTable(name string) error {
	m.mu.Lock()
	key := strings.ToUpper(name)
	ti, ok := m.tables[key]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("hive: table %s not found", name)
	}
	delete(m.tables, key)
	m.mu.Unlock()
	// Remove the warehouse files outside the metastore lock (HDFS
	// round-trip; same lock-ordering rule as CreateTable). The entry is
	// already unpublished, so readers cannot resolve the table while its
	// files disappear.
	return m.cluster.Remove(ti.Dir)
}

// TableNames lists tables.
func (m *Metastore) TableNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, t := range m.tables {
		out = append(out, t.Name)
	}
	return out
}

// LoadRows writes rows into the table as numPartFiles record files and
// updates the statistics. It appends to existing data.
func (m *Metastore) LoadRows(name string, rows []value.Row, numPartFiles int) error {
	ti, ok := m.Table(name)
	if !ok {
		return fmt.Errorf("hive: table %s not found", name)
	}
	n := max(numPartFiles, 1)
	per := max((len(rows)+n-1)/n, 1)
	m.mu.Lock()
	base := ti.Files
	m.mu.Unlock()
	files := 0
	var bytes int64
	for off := 0; off < len(rows); off += per {
		data := appendRows([]byte(mapreduce.RecordHeader), rows[off:min(off+per, len(rows))])
		if err := m.cluster.WriteFile(fmt.Sprintf("%s/part-%05d", ti.Dir, base+files), data); err != nil {
			return err
		}
		bytes += int64(len(data))
		files++
	}
	m.mu.Lock()
	ti.RowCount += int64(len(rows))
	ti.Files += files
	ti.Bytes += bytes
	invalidate := m.invalidateOnLoad && !ti.Temp
	m.mu.Unlock()
	if invalidate {
		m.CacheInvalidateAll()
	}
	return nil
}

// ReadTable materializes all rows of a table (used for cache hits and
// small results).
func (m *Metastore) ReadTable(name string) (*value.Rows, error) {
	ti, ok := m.Table(name)
	if !ok {
		return nil, fmt.Errorf("hive: table %s not found", name)
	}
	bs, err := readDir(m.cluster, ti.Dir, newRowReader(ti.Schema, nil, nil))
	if err != nil {
		return nil, err
	}
	return &value.Rows{Schema: ti.Schema.Clone(), Data: exec.Rel{Batches: bs}.AllRows()}, nil
}

// NewTempTableName allocates a unique temp table name for CTAS
// materializations.
func (m *Metastore) NewTempTableName() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTmp++
	return fmt.Sprintf("tmp_mat_%06d", m.nextTmp)
}

// CacheLookup returns a valid cache entry for the key, dropping expired
// entries (remote_cache_validity semantics of §4.4: "If it discovers that
// the data set is outdated, it discards the old data set").
func (m *Metastore) CacheLookup(key string, validity time.Duration, now time.Time) (fed.CacheEntry, bool) {
	m.mu.Lock()
	e, ok := m.cache[key]
	m.mu.Unlock()
	if !ok {
		return fed.CacheEntry{}, false
	}
	if e.Expired(validity, now) {
		m.mu.Lock()
		delete(m.cache, key)
		m.mu.Unlock()
		_ = m.DropTable(e.TempTable)
		return fed.CacheEntry{}, false
	}
	return e, true
}

// CacheStore registers a materialization. The temp table of an entry it
// replaces — a damaged one recomputed, or one of two materializations of
// the same key — is dropped.
func (m *Metastore) CacheStore(e fed.CacheEntry) {
	m.mu.Lock()
	old, ok := m.cache[e.Key]
	m.cache[e.Key] = e
	m.mu.Unlock()
	if ok && !strings.EqualFold(old.TempTable, e.TempTable) {
		_ = m.DropTable(old.TempTable)
	}
}

// CacheInvalidateAll clears the cache registry and drops the temp tables —
// used when base data changes.
func (m *Metastore) CacheInvalidateAll() {
	m.mu.Lock()
	entries := m.cache
	m.cache = map[string]fed.CacheEntry{}
	m.mu.Unlock()
	for _, e := range entries {
		_ = m.DropTable(e.TempTable)
	}
}

// CacheSize reports the number of live cache entries.
func (m *Metastore) CacheSize() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.cache)
}
