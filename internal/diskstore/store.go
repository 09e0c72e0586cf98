package diskstore

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hana/internal/value"
)

// Stats counts physical activity of the store; the federated benchmarks use
// them to show zone-map skipping and buffer-cache effectiveness.
type Stats struct {
	ChunksRead    atomic.Int64
	ChunksSkipped atomic.Int64
	CacheHits     atomic.Int64
	BytesRead     atomic.Int64
}

// Store is a disk-backed columnar store rooted at a directory, holding many
// tables. A single store instance owns its directory.
type Store struct {
	mu     sync.Mutex
	dir    string
	tables map[string]*Table
	cache  *chunkCache

	// Stats is updated on every physical chunk access.
	Stats Stats
}

// Open opens (or initializes) a store at dir, loading the manifests of any
// existing tables.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{dir: dir, tables: map[string]*Table{}, cache: newChunkCache(256)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t, err := loadTable(s, e.Name())
		if err != nil {
			return nil, fmt.Errorf("load table %s: %w", e.Name(), err)
		}
		s.tables[strings.ToUpper(e.Name())] = t
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// CreateTable creates a new on-disk table.
func (s *Store) CreateTable(name string, schema *value.Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToUpper(name)
	if _, ok := s.tables[key]; ok {
		return nil, fmt.Errorf("table %s already exists in extended storage", name)
	}
	t := &Table{
		store:     s,
		name:      name,
		schema:    schema.Clone(),
		chunkSize: 4096,
	}
	if err := os.MkdirAll(t.path(), 0o755); err != nil {
		return nil, err
	}
	if err := t.saveManifest(); err != nil {
		return nil, err
	}
	s.tables[key] = t
	return t, nil
}

// Table returns a table by name (case-insensitive).
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[strings.ToUpper(name)]
	return t, ok
}

// TableNames lists the store's tables, sorted.
func (s *Store) TableNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for _, t := range s.tables {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// DropTable removes a table and its files.
func (s *Store) DropTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToUpper(name)
	t, ok := s.tables[key]
	if !ok {
		return fmt.Errorf("table %s not found in extended storage", name)
	}
	delete(s.tables, key)
	s.cache.dropTable(key)
	return os.RemoveAll(t.path())
}

// zone is a per-chunk, per-column min/max summary used to skip chunks: Min
// and Max order the chunk's non-NULL values by value.Compare, NaNs left
// out: a chunk holding one sets NaN instead and is never skipped. Compare
// puts a NaN above every number, so a range with no upper bound always
// meets such a chunk; manifests already on disk keep NaNs out of their
// bounds, so the flag stays what marks them. A DOUBLE bound keeps
// its IEEE bits in I and F stays 0 (packBound), as manifest.json holds it:
// JSON has no NaN or ±Inf.
type zone struct {
	Min     value.Value `json:"min"`
	Max     value.Value `json:"max"`
	HasNull bool        `json:"has_null"`
	AllNull bool        `json:"all_null"`
	NaN     bool        `json:"nan,omitempty"`
}

// packBound is v as a zone keeps it; unpackBound undoes it, and keeps F
// when I is 0, as manifests written before the bits were kept hold it.
func packBound(v value.Value) value.Value {
	if v.K == value.KindDouble {
		return value.Value{K: v.K, I: int64(math.Float64bits(v.F))}
	}
	return v
}

func unpackBound(v value.Value) value.Value {
	if v.K == value.KindDouble && v.I != 0 {
		return value.Value{K: v.K, F: math.Float64frombits(uint64(v.I))}
	}
	return v
}

// manifest is the persisted table metadata.
type manifest struct {
	Name      string         `json:"name"`
	Cols      []value.Column `json:"cols"`
	ChunkRows []int          `json:"chunk_rows"`
	Zones     [][]zone       `json:"zones"` // [chunk][col]
	ChunkSize int            `json:"chunk_size"`
}

// Table is one disk-resident columnar table: an append-only sequence of
// immutable chunks and an unflushed tail. A row's id is its position, and
// no row is ever removed; which rows a reader sees is the caller's MVCC
// layer's business.
type Table struct {
	mu        sync.RWMutex
	store     *Store
	name      string
	schema    *value.Schema
	chunkSize int

	chunkRows []int
	zones     [][]zone

	buf []value.Row // rows not yet written to a chunk
}

func loadTable(s *Store, dirName string) (*Table, error) {
	t := &Table{store: s, name: dirName}
	data, err := os.ReadFile(filepath.Join(s.dir, dirName, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	t.name = m.Name
	t.schema = &value.Schema{Cols: m.Cols}
	t.chunkRows = m.ChunkRows
	t.zones = m.Zones
	t.chunkSize = m.ChunkSize
	if t.chunkSize == 0 {
		t.chunkSize = 4096
	}
	return t, nil
}

// check rejects a manifest readers could not index by: every chunk needs a
// zone per column and a row count that is not negative, and the row counts
// must sum without overflow. A table
// has at least one column, so every chunk row is backed by a chunk file
// whose decoded length readChunk checks.
func (m *manifest) check() error {
	if len(m.Cols) == 0 {
		return fmt.Errorf("no columns")
	}
	if m.ChunkSize < 0 {
		return fmt.Errorf("chunk_size %d", m.ChunkSize)
	}
	if len(m.Zones) != len(m.ChunkRows) {
		return fmt.Errorf("%d zone rows for %d chunks", len(m.Zones), len(m.ChunkRows))
	}
	var total int64
	for i, n := range m.ChunkRows {
		if n < 0 || int64(n) > math.MaxInt64-total {
			return fmt.Errorf("chunk %d: %d rows after %d", i, n, total)
		}
		if len(m.Zones[i]) != len(m.Cols) {
			return fmt.Errorf("chunk %d: %d zones for %d columns", i, len(m.Zones[i]), len(m.Cols))
		}
		total += int64(n)
	}
	return nil
}

func (t *Table) path() string { return filepath.Join(t.store.dir, t.name) }

func (t *Table) chunkFile(chunk, col int) string {
	return filepath.Join(t.path(), fmt.Sprintf("c%06d_%03d.col", chunk, col))
}

func (t *Table) saveManifest() error {
	m := manifest{
		Name:      t.name,
		Cols:      t.schema.Cols,
		ChunkRows: t.chunkRows,
		Zones:     t.zones,
		ChunkSize: t.chunkSize,
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(t.path(), "manifest.json.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(t.path(), "manifest.json"))
}

// Schema returns the table schema.
func (t *Table) Schema() *value.Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows counts the stored rows, the unflushed tail included — the next
// row id. MVCC layers align version vectors with this.
func (t *Table) NumRows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.flushedLocked() + int64(len(t.buf))
}

// flushedLocked counts the rows written to chunks.
func (t *Table) flushedLocked() int64 {
	var n int64
	for _, c := range t.chunkRows {
		n += int64(c)
	}
	return n
}

// Append buffers one row; call Flush to persist. Buffered rows are visible
// to Scan.
func (t *Table) Append(row value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(row) != t.schema.Len() {
		return fmt.Errorf("row arity %d does not match schema arity %d", len(row), t.schema.Len())
	}
	t.buf = append(t.buf, row.Clone())
	if len(t.buf) >= t.chunkSize {
		return t.flushLocked()
	}
	return nil
}

// BulkLoad appends many rows and flushes — the paper's "direct load
// mechanism … to support Big Data scenarios with high ingestion rate
// requirements" that bypasses the in-memory store.
func (t *Table) BulkLoad(rows []value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != t.schema.Len() {
			return fmt.Errorf("row arity %d does not match schema arity %d", len(r), t.schema.Len())
		}
		t.buf = append(t.buf, r.Clone())
	}
	return t.flushLocked()
}

// Flush writes buffered rows to disk chunks and persists the manifest. With
// no buffered rows it writes nothing.
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *Table) flushLocked() error {
	if len(t.buf) == 0 {
		return nil
	}
	for len(t.buf) > 0 {
		n := len(t.buf)
		if n > t.chunkSize {
			n = t.chunkSize
		}
		rows := t.buf[:n]
		chunk := len(t.chunkRows)
		zs := make([]zone, t.schema.Len())
		for col := 0; col < t.schema.Len(); col++ {
			vals := make([]value.Value, n)
			z := zone{AllNull: true}
			var lo, hi value.Value
			for i, r := range rows {
				vals[i] = r[col]
				v := r[col]
				switch {
				case v.IsNull():
					z.HasNull = true
					continue
				case v.K == value.KindDouble && math.IsNaN(v.F):
					z.NaN = true
				case lo.IsNull():
					lo, hi = v, v
				case value.Compare(v, lo) < 0:
					lo = v
				case value.Compare(v, hi) > 0:
					hi = v
				}
				z.AllNull = false
			}
			z.Min, z.Max = packBound(lo), packBound(hi)
			zs[col] = z
			data, err := encodeChunk(t.schema.Cols[col].Kind, vals)
			if err != nil {
				return err
			}
			if err := os.WriteFile(t.chunkFile(chunk, col), data, 0o644); err != nil {
				return err
			}
		}
		t.chunkRows = append(t.chunkRows, n)
		t.zones = append(t.zones, zs)
		t.buf = t.buf[n:]
	}
	t.buf = nil
	return t.saveManifest()
}

// Range restricts a scan on one column: Lo/Hi nil mean unbounded.
type Range struct {
	Lo, Hi *value.Value
}

// skippable reports whether a chunk zone proves no row can satisfy the
// range.
func (r Range) skippable(z zone) bool {
	switch {
	case z.NaN:
		return false
	case z.AllNull:
		return true
	case r.Lo != nil && value.Compare(unpackBound(z.Max), *r.Lo) < 0:
		return true
	case r.Hi != nil && value.Compare(unpackBound(z.Min), *r.Hi) > 0:
		return true
	}
	return false
}

// skipped reports whether the chunk's zone maps prove no row can satisfy
// ranges.
func (t *Table) skipped(chunk int, ranges map[int]Range) bool {
	for col, r := range ranges {
		if r.skippable(t.zones[chunk][col]) {
			return true
		}
	}
	return false
}

// Span is a run of consecutive row ids [Lo, Hi) that ReadBatch serves in
// one piece: one flushed chunk, or the unflushed tail.
type Span struct{ Lo, Hi int64 }

// Spans lists, in row-id order, what a scan restricted by ranges (zone-map
// pruning, keyed by column ordinal) has to read: one span per chunk the
// zone maps cannot rule out — the ruled-out ones count as skipped — and one
// for the unflushed tail. Chunks are immutable and row ids stable, so a span
// stays readable whatever is appended or flushed after the call.
func (t *Table) Spans(ranges map[int]Range) []Span {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.spansLocked(ranges)
}

func (t *Table) spansLocked(ranges map[int]Range) []Span {
	out := make([]Span, 0, len(t.chunkRows)+1)
	var base int64
	for chunk, n := range t.chunkRows {
		hi := base + int64(n)
		if t.skipped(chunk, ranges) {
			t.store.Stats.ChunksSkipped.Add(1)
		} else {
			out = append(out, Span{base, hi})
		}
		base = hi
	}
	if len(t.buf) > 0 {
		out = append(out, Span{base, base + int64(len(t.buf))})
	}
	return out
}

// ReadBatch returns rows [lo, hi) as a columnar batch. [lo, hi) must be a
// span Spans returned; it stays valid when a later flush has folded the tail
// it named into a larger chunk. needed marks the column ordinals to read
// (nil = all); the others become pruned vectors that read no chunk. A chunk
// column is the cached typed vector, its payload sliced and not copied, so
// nobody may write to it; the unflushed tail is transposed as the row
// store's rows are. The batch has no selection: row k has id lo + k.
func (t *Table) ReadBatch(lo, hi int64, needed []bool) (*value.Batch, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.readBatchLocked(lo, hi, needed)
}

func (t *Table) readBatchLocked(lo, hi int64, needed []bool) (*value.Batch, error) {
	chunk, base := 0, int64(0)
	for chunk < len(t.chunkRows) && base+int64(t.chunkRows[chunk]) <= lo {
		base += int64(t.chunkRows[chunk])
		chunk++
	}
	end := base + int64(len(t.buf))
	if chunk < len(t.chunkRows) {
		end = base + int64(t.chunkRows[chunk])
	}
	if lo < 0 || lo > hi || hi > end {
		return nil, fmt.Errorf("rows [%d, %d) of %s are not within one chunk", lo, hi, t.name)
	}
	if chunk == len(t.chunkRows) {
		return value.BatchFromRows(t.schema, t.buf[lo-base:hi-base], needed), nil
	}
	b := &value.Batch{Schema: t.schema, Cols: make([]value.Vec, t.schema.Len()), N: int(hi - lo)}
	for c := range b.Cols {
		if needed != nil && (c >= len(needed) || !needed[c]) {
			b.Cols[c] = value.Vec{Kind: t.schema.Cols[c].Kind, Pruned: true}
			continue
		}
		cv, err := t.readChunk(chunk, c)
		if err != nil {
			return nil, err
		}
		b.Cols[c] = sliceVec(cv, int(lo-base), int(hi-base))
	}
	return b, nil
}

// sliceVec returns rows [lo, hi) of a cached chunk vector: the payload is
// shared, and the null bitmap is too when lo starts one of its words;
// otherwise the bitmap is copied, shifted to start at lo.
func sliceVec(cv *value.Vec, lo, hi int) value.Vec {
	v := value.Vec{Kind: cv.Kind, Dict: cv.Dict}
	switch cv.Kind {
	case value.KindDouble:
		v.Floats = cv.Floats[lo:hi:hi]
	case value.KindVarchar:
		v.Codes = cv.Codes[lo:hi:hi]
	default:
		v.Ints = cv.Ints[lo:hi:hi]
	}
	if cv.Nulls == nil || lo == hi {
		return v
	}
	w, at, sh := (hi-lo+63)/64, lo/64, uint(lo%64)
	if sh == 0 {
		v.Nulls = cv.Nulls[at : at+w : at+w]
		return v
	}
	v.Nulls = make([]uint64, w)
	for k := range v.Nulls {
		v.Nulls[k] = cv.Nulls[at+k] >> sh
		if at+k+1 < len(cv.Nulls) {
			v.Nulls[k] |= cv.Nulls[at+k+1] << (64 - sh)
		}
	}
	return v
}

// Scan iterates stored rows projecting the given column ordinals (nil = all
// columns). ranges optionally prunes chunks via zone maps (keyed by column
// ordinal). fn returning false stops the scan. The row slice is reused.
func (t *Table) Scan(ords []int, ranges map[int]Range, fn func(id int64, row value.Row) bool) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scanLocked(ords, ranges, fn)
}

func (t *Table) scanLocked(ords []int, ranges map[int]Range, fn func(id int64, row value.Row) bool) error {
	var needed []bool
	if ords == nil {
		ords = make([]int, t.schema.Len())
		for i := range ords {
			ords[i] = i
		}
	} else {
		needed = make([]bool, t.schema.Len())
		for _, o := range ords {
			needed[o] = true
		}
	}
	row := make(value.Row, len(ords))
	for _, sp := range t.spansLocked(ranges) {
		b, err := t.readBatchLocked(sp.Lo, sp.Hi, needed)
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			for j, o := range ords {
				row[j] = b.Cols[o].Value(i)
			}
			if !fn(sp.Lo+int64(i), row) {
				return nil
			}
		}
	}
	return nil
}

// readChunk returns a decoded column chunk, via the buffer cache.
func (t *Table) readChunk(chunk, col int) (*value.Vec, error) {
	key := cacheKey{table: strings.ToUpper(t.name), chunk: chunk, col: col}
	if v, ok := t.store.cache.get(key); ok {
		t.store.Stats.CacheHits.Add(1)
		return v, nil
	}
	data, err := os.ReadFile(t.chunkFile(chunk, col))
	if err != nil {
		return nil, err
	}
	t.store.Stats.ChunksRead.Add(1)
	t.store.Stats.BytesRead.Add(int64(len(data)))
	v, n, err := decodeChunk(data)
	// The manifest says what the file must hold; a reader indexes the column
	// by the manifest's row count, so a shorter one must not get out.
	if err == nil && (n != t.chunkRows[chunk] || v.Kind != t.schema.Cols[col].Kind) {
		err = fmt.Errorf("holds %d %s values, manifest says %d %s", n, v.Kind, t.chunkRows[chunk], t.schema.Cols[col].Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("chunk %d col %d of %s: %w", chunk, col, t.name, err)
	}
	t.store.cache.put(key, v)
	return v, nil
}

// DiskSize reports the bytes the table occupies on disk.
func (t *Table) DiskSize() (int64, error) {
	var n int64
	err := filepath.Walk(t.path(), func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// AddColumn extends the table schema with a new column; existing rows read
// NULL. Row ids and chunk boundaries are unchanged, so MVCC version vectors
// stay aligned.
func (t *Table) AddColumn(col value.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	newOrd := t.schema.Len()
	for chunk, n := range t.chunkRows {
		vals := make([]value.Value, n)
		for i := range vals {
			vals[i] = value.Null
		}
		data, err := encodeChunk(col.Kind, vals)
		if err != nil {
			return err
		}
		if err := os.WriteFile(t.chunkFile(chunk, newOrd), data, 0o644); err != nil {
			return err
		}
		t.zones[chunk] = append(t.zones[chunk], zone{HasNull: n > 0, AllNull: true})
	}
	for i, r := range t.buf {
		t.buf[i] = append(r, value.Null)
	}
	t.schema.Cols = append(t.schema.Cols, col)
	t.store.cache.dropTable(strings.ToUpper(t.name))
	return t.saveManifest()
}
