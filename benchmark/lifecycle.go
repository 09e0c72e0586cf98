package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"hana/internal/engine"
	"hana/internal/txn"
	"hana/internal/value"
)

// The lifecycle table: ids ascend with the date, so a bulk load in id order
// is a load in date order and the cold partition's zone maps are tight.
const (
	lifeTable      = "events"
	lifeRowsPerDay = 500
	lifeColdShare  = 0.7 // of the bulk-loaded rows; at 400 k rows ≈ 69 chunks × 4 columns > the 256-entry chunk cache
	lifeTxRows     = 5
	lifeDeletes    = 2 // cold-row deletes per cycle: a bounded dose of the tombstone + manifest-rewrite cost
	lifeSavepoint  = 2 // cycle (the warm-up is cycle 0) after which the one Savepoint runs
)

// lifeGen is the input generator and, through its running totals, the
// correctness oracle: it knows COUNT(*) and SUM(v) of every read without
// asking the program. v is a small integer stored as DOUBLE, so sums are
// exact whatever order the engine adds them in.
type lifeGen struct {
	rng      *rand.Rand
	base     int64   // day number of id 0
	vals     []uint8 // v of every bulk-loaded row, by id
	coldRows int
	winRows  int // rows of the cold_window read (oldest tenth of the cold range)
	nextID   int64
	nextDay  int // next still-hot day (offset from base) to flag
	deleted  map[int64]bool

	hot, window, cold, all tally
}

type tally struct {
	n   int64
	sum int64
}

func (t *tally) add(v uint8) { t.n++; t.sum += int64(v) }
func (t *tally) sub(v uint8) { t.n--; t.sum -= int64(v) }
func (t tally) row() value.Row {
	return value.Row{value.NewInt(t.n), value.NewDouble(float64(t.sum))}
}

func (g *lifeGen) day(off int) string {
	return value.NewDate(g.base + int64(off)).SQLLiteral()
}

type lifeInst struct {
	e     *engine.Engine
	dir   string
	g     *lifeGen
	sc    scale
	cycle int
	reads [4]string // hot, cold_window, cold_full, union
	disk  diskDelta // extended-store activity of the four reads
	cfg   engine.Config
}

var lifeReadNames = [4]string{"hot", "cold_window", "cold_full", "union"}

// diskDelta accumulates diskstore.Stats deltas around the read operations.
type diskDelta struct{ ops, read, skipped, hits int64 }

func setupLifecycle(p params) (instance, error) {
	ctx := context.Background()
	base, err := value.ParseDate("2012-01-01")
	if err != nil {
		return nil, err
	}
	n := p.sc.lifeRows
	coldDays := int(float64(n)*lifeColdShare) / lifeRowsPerDay
	g := &lifeGen{
		rng: rand.New(rand.NewSource(p.seed)), base: base.I, vals: make([]uint8, n),
		coldRows: coldDays * lifeRowsPerDay, nextID: int64(n), nextDay: coldDays,
		deleted: map[int64]bool{},
	}
	g.winRows = (coldDays / 10) * lifeRowsPerDay
	rows := make([]value.Row, n)
	for id := range rows {
		v := uint8(g.rng.Intn(100))
		g.vals[id] = v
		rows[id] = value.Row{
			value.NewInt(int64(id)), value.NewDouble(float64(v)),
			value.NewDate(g.base + int64(id/lifeRowsPerDay)), value.NewBool(false),
		}
		g.all.add(v)
		switch {
		case id < g.winRows:
			g.window.add(v)
			g.cold.add(v)
		case id < g.coldRows:
			g.cold.add(v)
		default:
			g.hot.add(v)
		}
	}

	dir := filepath.Join(p.scratch, "data")
	cfg := engine.Config{
		DataDir:     dir,
		WALSync:     txn.SyncPolicy{Mode: txn.SyncCommit},
		Parallelism: width(),
		// CheckpointEvery stays zero: a background savepoint would make the
		// WAL and chunk counts depend on the clock.
	}
	e, err := engine.Open(cfg)
	if err != nil {
		return nil, err
	}
	coldEnd := g.day(coldDays)
	if _, err := e.ExecuteContext(ctx, fmt.Sprintf(`CREATE TABLE %s (id BIGINT, v DOUBLE, d DATE, aged BOOLEAN)
		PARTITION BY RANGE (d) (
			PARTITION VALUES < %s USING EXTENDED STORAGE,
			PARTITION OTHERS)
		WITH AGING ON (aged)`, lifeTable, coldEnd)); err != nil {
		_ = e.Close()
		return nil, err
	}
	if err := e.BulkLoad(lifeTable, rows); err != nil {
		_ = e.Close()
		return nil, err
	}
	sel := "SELECT COUNT(*), SUM(v) FROM " + lifeTable
	return &lifeInst{
		e: e, dir: dir, g: g, sc: p.sc, cfg: cfg,
		reads: [4]string{
			sel + " WHERE d >= " + coldEnd + " AND aged = FALSE",
			sel + " WHERE d < " + g.day(coldDays/10),
			sel + " WHERE d < " + coldEnd,
			sel,
		},
	}, nil
}

// maxPasses bounds the cycles by the supply of still-hot days to flag; the
// newest tenth of the hot range is never aged, so the hot read keeps work.
func (l *lifeInst) maxPasses() int {
	hotDays := (len(l.g.vals) - l.g.coldRows) / lifeRowsPerDay
	return hotDays*9/10/ageDays(l.sc) - 1 // one window went to the warm-up cycle
}

// ageDays is the width of the date window flagged and aged per cycle.
func ageDays(sc scale) int {
	if d := sc.lifeAge / lifeRowsPerDay; d > 1 {
		return d
	}
	return 1
}

func (l *lifeInst) warm(r *run) error { return l.pass(r) }

// pass is one lifecycle cycle: insert transactions, flag a still-hot date
// window and age it into extended storage, delete two cold rows, then the
// four reads. No statement but the two deletes touches a row already in
// extended storage: a cold-row update is delete + reinsert with a manifest
// rewrite per tombstone, and cold_delete prices exactly that in a bounded
// dose.
func (l *lifeInst) pass(r *run) error {
	g := l.g
	opt := engine.WithParallelism(width())

	newDay := g.day(len(g.vals)/lifeRowsPerDay + 1)
	for t := 0; t < l.sc.lifeTx; t++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + lifeTable + " VALUES ")
		var vs [lifeTxRows]uint8
		for i := range vs {
			vs[i] = uint8(g.rng.Intn(100))
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %s, FALSE)", g.nextID+int64(i), vs[i], newDay)
		}
		sql := sb.String()
		res := r.op("insert_tx", "", func() (*engine.Result, error) { return l.e.ExecuteContext(r.ctx, sql) })
		if res == nil {
			continue // failed and counted; the rows are not in the table
		}
		if res.Affected != lifeTxRows {
			r.fail("insert_tx", fmt.Errorf("affected %d rows, want %d", res.Affected, lifeTxRows))
		}
		g.nextID += lifeTxRows
		for _, v := range vs {
			g.hot.add(v)
			g.all.add(v)
		}
	}

	lo, hi := g.nextDay, g.nextDay+ageDays(l.sc)
	g.nextDay = hi
	var want int64
	for id := lo * lifeRowsPerDay; id < hi*lifeRowsPerDay; id++ {
		g.hot.sub(g.vals[id])
		want++
	}
	flag := fmt.Sprintf("UPDATE %s SET aged = TRUE WHERE d >= %s AND d < %s AND aged = FALSE", lifeTable, g.day(lo), g.day(hi))
	if res := r.op("flag_update", "", func() (*engine.Result, error) { return l.e.ExecuteContext(r.ctx, flag, opt) }); res != nil && res.Affected != want {
		r.fail("flag_update", fmt.Errorf("flagged %d rows, want %d", res.Affected, want))
	}
	if res := r.op("aging", "", func() (*engine.Result, error) {
		moved, err := l.e.RunAgingContext(r.ctx, lifeTable)
		return &engine.Result{Affected: moved}, err
	}); res != nil && res.Affected != want {
		r.fail("aging", fmt.Errorf("moved %d rows, want %d", res.Affected, want))
	}

	for i := 0; i < lifeDeletes; i++ {
		id := int64(g.rng.Intn(g.coldRows))
		for g.deleted[id] {
			id = int64(g.rng.Intn(g.coldRows))
		}
		g.deleted[id] = true
		res := r.op("cold_delete", "", func() (*engine.Result, error) {
			return l.e.ExecuteContext(r.ctx, "DELETE FROM "+lifeTable+" WHERE id = ?", engine.WithParams(value.NewInt(id)), opt)
		})
		if res == nil {
			continue
		}
		if res.Affected != 1 {
			r.fail("cold_delete", fmt.Errorf("deleted %d rows, want 1", res.Affected))
		}
		v := g.vals[id]
		g.cold.sub(v)
		g.all.sub(v)
		if int(id) < g.winRows {
			g.window.sub(v)
		}
	}

	// Prime the chunk cache for cold_window: the previous cycle's full scans
	// evicted its chunks, and the timed read is the case that fits the cache.
	if _, err := l.e.ExecuteContext(r.ctx, l.reads[1], opt); err != nil {
		return err
	}
	ext, err := l.e.ExtendedStore()
	if err != nil {
		return err
	}
	for i, want := range [4]tally{g.hot, g.window, g.cold, g.all} {
		name, sql := lifeReadNames[i], l.reads[i]
		r.expect(name, want.row())
		s := &ext.Stats
		before := diskDelta{0, s.ChunksRead.Load(), s.ChunksSkipped.Load(), s.CacheHits.Load()}
		r.op(name, name, func() (*engine.Result, error) { return l.e.ExecuteContext(r.ctx, sql, opt) })
		l.disk.ops++
		l.disk.read += s.ChunksRead.Load() - before.read
		l.disk.skipped += s.ChunksSkipped.Load() - before.skipped
		l.disk.hits += s.CacheHits.Load() - before.hits
	}

	if l.cycle == lifeSavepoint {
		start := time.Now()
		if _, err := l.e.Savepoint(); err != nil {
			return fmt.Errorf("savepoint: %w", err)
		}
		r.extraS["savepoint_s"] = time.Since(start).Seconds()
	}
	l.cycle++
	return nil
}

// finish closes the engine and recovers it from the data directory; the
// recovered table must hold exactly what the generator says it should.
func (l *lifeInst) finish(r *run) error {
	if err := l.e.Close(); err != nil {
		return err
	}
	start := time.Now()
	e, err := engine.Recover(l.dir, l.cfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.extraS["recover_s"] = time.Since(start).Seconds()
	l.e = e
	r.expect("recovered", l.g.all.row())
	r.op("recovered", "recovered", func() (*engine.Result, error) { return e.ExecuteContext(r.ctx, l.reads[3]) })
	return nil
}

func (l *lifeInst) close() error { return l.e.Close() }

func (l *lifeInst) counters() map[string]int64 {
	out := execCounters(l.e)
	out["read_ops"], out["read_chunks_read"] = l.disk.ops, l.disk.read
	out["read_chunks_skipped"], out["read_chunk_cache_hits"] = l.disk.skipped, l.disk.hits
	if w := l.e.WAL(); w != nil {
		st := w.Stats()
		out["wal_appends"], out["wal_bytes"], out["wal_fsyncs"] = st.Appends, st.Bytes, st.Syncs
	}
	if ext, err := l.e.ExtendedStore(); err == nil {
		s := &ext.Stats
		out["chunks_read"], out["chunks_skipped"] = s.ChunksRead.Load(), s.ChunksSkipped.Load()
		out["chunk_cache_hits"], out["chunk_bytes_read"] = s.CacheHits.Load(), s.BytesRead.Load()
	}
	return out
}

// lifecycleBreakdown derives the workload's named rates from the untraced
// samples.
func lifecycleBreakdown(r *run) []metric {
	s := &r.samples
	seconds := func(class string) float64 {
		t := 0.0
		for _, ms := range s.ms[class] {
			t += ms
		}
		return t / 1e3
	}
	cycles := s.passes()
	return []metric{
		{Name: "insert_tx_per_s", Unit: "1/s", Value: float64(len(s.ms["insert_tx"])) / seconds("insert_tx"), N: len(s.ms["insert_tx"])},
		{Name: "aging_rows_per_s", Unit: "1/s", Value: float64(cycles*ageDays(r.p.sc)*lifeRowsPerDay) / (seconds("flag_update") + seconds("aging")), N: cycles},
		{Name: "read_mix_ms", Unit: "ms", Value: s.suite(func(c string) bool {
			return c == "hot" || c == "cold_window" || c == "cold_full" || c == "union"
		}), N: cycles},
		medianMetric("cold_delete_ms", "ms", s.ms["cold_delete"]),
	}
}
