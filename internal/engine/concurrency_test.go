package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hana/internal/dist"
	"hana/internal/txn"
	"hana/internal/value"
)

// counterPlacements creates table t (k, v) holding the counter row (1, 0)
// and one bystander row, on every placement: each entry returns a fresh
// engine. Each placement comes keyless and, as "<name>-keyed", with k as
// its primary key.
var counterPlacements = func() []counterPlacement {
	out := []counterPlacement{
		{"column", Config{}, `CREATE TABLE t (k BIGINT, v BIGINT)`},
		{"row", Config{}, `CREATE ROW TABLE t (k BIGINT, v BIGINT)`},
		{"extended", Config{}, `CREATE TABLE t (k BIGINT, v BIGINT) USING EXTENDED STORAGE`},
		{"hybrid-hot", Config{}, `CREATE TABLE t (k BIGINT, v BIGINT)
		PARTITION BY RANGE (k) (PARTITION VALUES < 1 USING EXTENDED STORAGE, PARTITION OTHERS)`},
		{"hybrid-cold", Config{}, `CREATE TABLE t (k BIGINT, v BIGINT)
		PARTITION BY RANGE (k) (PARTITION VALUES < 10 USING EXTENDED STORAGE, PARTITION OTHERS)`},
		{"2-shard", Config{Topology: dist.Topology{Shards: 2}}, `CREATE TABLE t (k BIGINT, v BIGINT)`},
	}
	for _, pl := range out[:len(out):len(out)] {
		out = append(out, counterPlacement{pl.name + "-keyed", pl.cfg, strings.Replace(pl.ddl, "k BIGINT", "k BIGINT PRIMARY KEY", 1)})
	}
	return out
}()

type counterPlacement struct {
	name string
	cfg  Config
	ddl  string
}

// newCounter returns a fresh engine holding pl's table t with the counter
// row (1, 0) and the bystander (20, 0).
func newCounter(t *testing.T, pl counterPlacement) *Engine {
	t.Helper()
	cfg := pl.cfg
	cfg.ExtendedStorageDir = t.TempDir()
	e := New(cfg)
	exec1(t, e, pl.ddl)
	exec1(t, e, `INSERT INTO t VALUES (1, 0), (20, 0)`)
	return e
}

// Concurrent clients increment one row, by autocommit UPDATEs and by
// read-modify-write transactions, on every placement. First committer wins:
// a statement either fails with a write-write conflict or affects exactly
// the one row, every read sees exactly one version of it, and the final
// value is the number of committed increments.
func TestConcurrentIncrementsAreNotLost(t *testing.T) {
	const clients, each = 8, 25
	for _, pl := range counterPlacements {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				e := newCounter(t, pl)
				ctx := context.Background()
				par := WithParallelism(width)
				var (
					wg                              sync.WaitGroup
					mu                              sync.Mutex
					committed, missedReads, noOpUpd int
				)
				conflict := func(err error) bool {
					if errors.Is(err, txn.ErrConflict) {
						return true
					}
					t.Errorf("not a write-write conflict: %v", err)
					return false
				}
				autocommit := func() {
					res, err := e.ExecuteContext(ctx, `UPDATE t SET v = v + 1 WHERE k = 1`, par)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err != nil:
						conflict(err)
					case res.Affected != 1:
						noOpUpd++
					default:
						committed++
					}
				}
				readModifyWrite := func() {
					tx := e.Begin()
					res, err := e.ExecuteContext(ctx, `SELECT v FROM t WHERE k = 1`, WithTx(tx), par)
					if err != nil {
						t.Error(err)
						_ = e.Rollback(tx)
						return
					}
					if len(res.Rows) != 1 {
						mu.Lock()
						missedReads++
						mu.Unlock()
						_ = e.Rollback(tx)
						return
					}
					next := value.NewInt(res.Rows[0][0].Int() + 1)
					up, err := e.ExecuteContext(ctx, `UPDATE t SET v = ? WHERE k = 1`, WithTx(tx), WithParams(next), par)
					if err != nil {
						conflict(err)
						_ = e.Rollback(tx)
						return
					}
					if err := e.CommitTxContext(ctx, tx); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if up.Affected != 1 {
						noOpUpd++
					} else {
						committed++
					}
				}
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							autocommit()
							readModifyWrite()
						}
					}(c)
				}
				wg.Wait()
				if missedReads != 0 || noOpUpd != 0 {
					t.Errorf("%d reads saw no version of the row; %d committed UPDATEs affected no row", missedReads, noOpUpd)
				}
				res := exec1(t, e, `SELECT k, v FROM t ORDER BY k`)
				if len(res.Rows) != 2 || res.Rows[0][1].Int() != int64(committed) || res.Rows[1][1].Int() != 0 {
					t.Fatalf("rows %v after %d committed increments", res.Rows, committed)
				}
				if committed == 0 {
					t.Fatal("no increment committed")
				}
			})
		}
	}
}

// Concurrent clients insert the same new key into a keyed table, each in
// its own transaction, on every placement. Exactly one commits; every other
// insert is refused as a duplicate of the committed row or as a conflict
// with the one still in flight, and one row holds the key.
func TestConcurrentKeyInsertOneWins(t *testing.T) {
	const clients = 8
	for _, pl := range counterPlacements {
		if !strings.HasSuffix(pl.name, "-keyed") {
			continue
		}
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				e := newCounter(t, pl)
				ctx := context.Background()
				par := WithParallelism(width)
				var (
					wg, start sync.WaitGroup
					mu        sync.Mutex
					committed int
				)
				start.Add(1)
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						start.Wait()
						tx := e.Begin()
						_, err := e.ExecuteContext(ctx, fmt.Sprintf(`INSERT INTO t VALUES (7, %d)`, c), WithTx(tx), par)
						if err != nil {
							if !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, txn.ErrConflict) {
								t.Errorf("client %d: %v, want a duplicate key or a write-write conflict", c, err)
							}
							_ = e.Rollback(tx)
							return
						}
						if err := e.CommitTxContext(ctx, tx); err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						committed++
						mu.Unlock()
					}(c)
				}
				start.Done()
				wg.Wait()
				if committed != 1 {
					t.Fatalf("%d of %d inserts of one key committed", committed, clients)
				}
				res, err := e.ExecuteContext(ctx, `SELECT k FROM t WHERE k = 7`, par)
				if err != nil || len(res.Rows) != 1 {
					t.Fatalf("rows holding key 7: %v, %v", res, err)
				}
			})
		}
	}
}

// An open transaction keeps reading the version of a cold row its snapshot
// saw: after a concurrent committed UPDATE of the row, and after an aging
// move into the cold partition.
func TestColdSnapshotSeesOneVersion(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE x (k BIGINT, v BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO x VALUES (1, 0)`)
	exec1(t, e, `CREATE TABLE h (k BIGINT, v BIGINT, aged BOOLEAN)
		PARTITION BY RANGE (k) (PARTITION VALUES < 10 USING EXTENDED STORAGE, PARTITION OTHERS)
		WITH AGING ON (aged)`)
	exec1(t, e, `INSERT INTO h VALUES (1, 0, FALSE), (20, 0, TRUE)`)
	ctx := context.Background()
	tx := e.Begin()
	read := func(sql string) []string {
		t.Helper()
		res, err := e.ExecuteContext(ctx, sql, WithTx(tx))
		if err != nil {
			t.Fatal(err)
		}
		return renderRows(res.Rows)
	}
	expect := func(step, sql string, want ...string) {
		t.Helper()
		if got := read(sql); !sameRows(got, want) {
			t.Fatalf("%s: %s = %v, want %v", step, sql, got, want)
		}
	}
	const readX, readH = `SELECT k, v FROM x`, `SELECT k, v FROM h`
	expect("start", readX, "1|0")
	expect("start", readH, "1|0", "20|0")

	exec1(t, e, `UPDATE x SET v = 1 WHERE k = 1`)
	exec1(t, e, `UPDATE h SET v = 1 WHERE k = 1`)
	expect("after a cold UPDATE", readX, "1|0")
	expect("after a cold UPDATE", readH, "1|0", "20|0")

	if moved, err := e.RunAgingContext(ctx, "h"); err != nil || moved != 1 {
		t.Fatalf("aging moved %d rows: %v", moved, err)
	}
	expect("after aging", readH, "1|0", "20|0")
	exec1(t, e, `UPDATE h SET v = 2`)
	expect("after UPDATEs of both cold rows", readH, "1|0", "20|0")

	if err := e.Rollback(tx); err != nil {
		t.Fatal(err)
	}
	if got := renderRows(exec1(t, e, readX).Rows); !sameRows(got, []string{"1|1"}) {
		t.Fatalf("x = %v after the commits", got)
	}
	if got := renderRows(exec1(t, e, readH).Rows); !sameRows(got, []string{"1|2", "20|2"}) {
		t.Fatalf("h = %v after the commits", got)
	}
	parts, err := e.PartitionRowCounts("h")
	if err != nil || parts[0].Rows != 1 || parts[1].Rows != 1 {
		t.Fatalf("partition counts = %+v, %v", parts, err)
	}
}
