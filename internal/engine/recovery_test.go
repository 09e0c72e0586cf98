package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"hana/internal/dist"
	"hana/internal/faults"
	"hana/internal/txn"
	"hana/internal/value"
)

func openDurable(t *testing.T, dir string, cfg Config) *Engine {
	t.Helper()
	e, err := Recover(dir, cfg)
	if err != nil {
		t.Fatalf("Recover(%s): %v", dir, err)
	}
	return e
}

// renderRows renders a result set into sorted strings for order-insensitive
// comparison across restarts.
func renderRows(rows []value.Row) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecoverCommittedAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE hot (id BIGINT, v VARCHAR(20))`)
	exec1(t, e, `CREATE TABLE hist (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO hot VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	exec1(t, e, `INSERT INTO hist VALUES (10), (20)`)
	exec1(t, e, `UPDATE hot SET v = 'B' WHERE id = 2`)
	exec1(t, e, `DELETE FROM hot WHERE id = 3`)
	wantHot := renderRows(exec1(t, e, `SELECT id, v FROM hot`).Rows)
	wantHist := renderRows(exec1(t, e, `SELECT id FROM hist`).Rows)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	info := r.RecoveryInfo()
	if !info.Recovered {
		t.Fatalf("expected recovery to run: %+v", info)
	}
	gotHot := renderRows(exec1(t, r, `SELECT id, v FROM hot`).Rows)
	gotHist := renderRows(exec1(t, r, `SELECT id FROM hist`).Rows)
	if !sameRows(wantHot, gotHot) {
		t.Fatalf("hot rows: want %v, got %v", wantHot, gotHot)
	}
	if !sameRows(wantHist, gotHist) {
		t.Fatalf("hist rows: want %v, got %v", wantHist, gotHist)
	}
	if info.Committed == 0 || info.DataRecords == 0 {
		t.Fatalf("replay summary looks empty: %+v", info)
	}
}

func TestRecoverAbortsUndecidedTransaction(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	// An open transaction whose decision never reaches the log: its insert
	// is redo-logged but must not survive recovery.
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (99)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	rows := renderRows(exec1(t, r, `SELECT id FROM t`).Rows)
	if !sameRows(rows, []string{"1"}) {
		t.Fatalf("undecided insert leaked: %v", rows)
	}
	if r.RecoveryInfo().Orphaned != 1 {
		t.Fatalf("Orphaned = %d, want 1 (%+v)", r.RecoveryInfo().Orphaned, r.RecoveryInfo())
	}
}

func TestRecoverRolledBackStaysAbsent(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (7)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.Rollback(tx); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `INSERT INTO t VALUES (8)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	rows := renderRows(exec1(t, r, `SELECT id FROM t`).Rows)
	if !sameRows(rows, []string{"8"}) {
		t.Fatalf("aborted insert resurrected: %v", rows)
	}
	if r.RecoveryInfo().Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", r.RecoveryInfo().Aborted)
	}
}

func TestSavepointShrinksReplayAndTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE t (id BIGINT, v VARCHAR(10))`)
	exec1(t, e, `INSERT INTO t VALUES (1, 'pre'), (2, 'pre')`)
	preRecords := e.WAL().Stats().Appends

	s, err := e.Savepoint()
	if err != nil {
		t.Fatalf("Savepoint: %v", err)
	}
	if s == 0 {
		t.Fatal("savepoint LSN must be nonzero")
	}
	exec1(t, e, `INSERT INTO t VALUES (3, 'post')`)
	want := renderRows(exec1(t, e, `SELECT id, v FROM t`).Rows)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	info := r.RecoveryInfo()
	if info.SavepointLSN != s {
		t.Fatalf("SavepointLSN = %d, want %d", info.SavepointLSN, s)
	}
	// The replayed suffix must be much smaller than the full history.
	if info.WALRecords >= int(preRecords) {
		t.Fatalf("WAL suffix not shrunk: replayed %d records, pre-savepoint history had %d",
			info.WALRecords, preRecords)
	}
	got := renderRows(exec1(t, r, `SELECT id, v FROM t`).Rows)
	if !sameRows(want, got) {
		t.Fatalf("want %v, got %v", want, got)
	}
}

func TestRecoverTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1), (2)`)
	want := renderRows(exec1(t, e, `SELECT id FROM t`).Rows)
	walPath := e.WAL().Path()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail: half a record of garbage after the last durable record.
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	if !r.RecoveryInfo().TornTail {
		t.Fatalf("torn tail not detected: %+v", r.RecoveryInfo())
	}
	got := renderRows(exec1(t, r, `SELECT id FROM t`).Rows)
	if !sameRows(want, got) {
		t.Fatalf("want %v, got %v", want, got)
	}
	// The engine keeps appending past the repaired tail.
	exec1(t, r, `INSERT INTO t VALUES (3)`)
}

func TestRecoverDDLReplay(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE keep (id BIGINT)`)
	exec1(t, e, `CREATE TABLE gone (id BIGINT)`)
	exec1(t, e, `INSERT INTO keep VALUES (1)`)
	exec1(t, e, `ALTER TABLE keep ADD (tag VARCHAR(10))`)
	exec1(t, e, `INSERT INTO keep VALUES (2, 'x')`)
	exec1(t, e, `DROP TABLE gone`)
	want := renderRows(exec1(t, e, `SELECT id, tag FROM keep`).Rows)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	got := renderRows(exec1(t, r, `SELECT id, tag FROM keep`).Rows)
	if !sameRows(want, got) {
		t.Fatalf("want %v, got %v", want, got)
	}
	if _, err := r.ExecuteContext(context.Background(), `SELECT * FROM gone`); err == nil {
		t.Fatal("dropped table resurrected by replay")
	}
}

func TestRecoverInDoubtBranchAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	inj.SetSleep(func(time.Duration) {})
	e := openDurable(t, dir, Config{
		Faults: inj,
		Retry:  faults.RetryPolicy{MaxAttempts: 1},
	})
	exec1(t, e, `CREATE TABLE psa (id BIGINT) USING EXTENDED STORAGE`)
	// Phase 2 fails after the commit decision is durable: the branch goes
	// in-doubt with a decided commit.
	inj.FailN("txn.commit.extstore:psa", 1)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psa VALUES (42)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	if len(e.TxnManager().InDoubt()) != 1 {
		t.Fatalf("expected one in-doubt branch before crash")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	info := r.RecoveryInfo()
	if info.InDoubt != 1 {
		t.Fatalf("InDoubt = %d, want 1 (%+v)", info.InDoubt, info)
	}
	iv := exec1(t, r, `SELECT transaction_id, decision FROM M_INDOUBT_TRANSACTIONS()`)
	if len(iv.Rows) != 1 || iv.Rows[0][1].String() != "COMMIT" {
		t.Fatalf("M_INDOUBT_TRANSACTIONS = %v", iv.Rows)
	}
	if rows := exec1(t, r, `SELECT id FROM psa`).Rows; len(rows) != 0 {
		t.Fatalf("the in-doubt branch is visible before its resolution: %v", rows)
	}
	if err := r.ResolveAllInDoubt(); err != nil {
		t.Fatalf("resolving recovered branch: %v", err)
	}
	rows := renderRows(exec1(t, r, `SELECT id FROM psa`).Rows)
	if !sameRows(rows, []string{"42"}) {
		t.Fatalf("committed in-doubt row lost: %v", rows)
	}
}

func TestRecoveryViewsAndMetrics(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{WALSync: txn.SyncPolicy{Mode: txn.SyncAlways}})
	exec1(t, e, `CREATE TABLE t (id BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, Config{})
	defer r.Close()
	rec := exec1(t, r, `SELECT metric, val FROM M_RECOVERY()`)
	found := map[string]int64{}
	for _, row := range rec.Rows {
		found[row[0].String()] = row[1].Int()
	}
	if found["recovered"] != 1 {
		t.Fatalf("M_RECOVERY = %v", found)
	}
	ws := exec1(t, r, `SELECT metric, val FROM M_WAL_STATISTICS()`)
	if len(ws.Rows) == 0 {
		t.Fatal("M_WAL_STATISTICS empty on durable engine")
	}
}

func TestRecoverBulkLoadAndFlexible(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE FLEXIBLE TABLE f (id BIGINT)`)
	exec1(t, e, `INSERT INTO f (id, extra) VALUES (1, 'grew')`)
	if err := e.BulkLoad("f", []value.Row{{value.NewInt(2), value.NewString("bulk")}}); err != nil {
		t.Fatal(err)
	}
	want := renderRows(exec1(t, e, `SELECT id, extra FROM f`).Rows)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, Config{})
	defer r.Close()
	got := renderRows(exec1(t, r, `SELECT id, extra FROM f`).Rows)
	if !sameRows(want, got) {
		t.Fatalf("want %v, got %v", want, got)
	}
}

// Rows bulk-loaded into an extended-storage table after a savepoint exist
// only in the WAL tail; recovery must replay them on top of the savepoint
// image.
func TestRecoverExtendedBulkLoadAfterSavepoint(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{WALSync: txn.SyncPolicy{Mode: txn.SyncAlways}})
	exec1(t, e, `CREATE TABLE k_ext (id BIGINT, v VARCHAR(20)) USING EXTENDED STORAGE`)
	if err := e.BulkLoad("k_ext", []value.Row{
		{value.NewInt(1), value.NewString("a")},
		{value.NewInt(2), value.NewString("b")},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Savepoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.BulkLoad("k_ext", []value.Row{
		{value.NewInt(3), value.NewString("c")},
		{value.NewInt(4), value.NewString("d")},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(exec1(t, e, `SELECT id FROM k_ext`).Rows); n != 4 {
		t.Fatalf("before close: %d rows, want 4", n)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	if n := len(exec1(t, r, `SELECT id FROM k_ext`).Rows); n != 4 {
		t.Fatalf("lost rows after reopen: got %d, want 4", n)
	}
}

// A savepoint taken while cold UPDATEs are in flight exports their TID
// stamps and the rows behind them; whether each transaction commits after
// the savepoint or dies with the crash, recovery lands on the committed
// history.
func TestRecoverColdUpdateAcrossSavepoint(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE c (k BIGINT, v BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO c VALUES (1, 0), (2, 0), (3, 0)`)
	ctx := context.Background()
	commits, dies := e.Begin(), e.Begin()
	for _, u := range []struct {
		tx  *txn.Txn
		sql string
	}{{commits, `UPDATE c SET v = 1 WHERE k = 1`}, {dies, `UPDATE c SET v = 1 WHERE k = 2`}} {
		if _, err := e.ExecuteContext(ctx, u.sql, WithTx(u.tx)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Savepoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(ctx, commits); err != nil {
		t.Fatal(err)
	}
	exec1(t, e, `UPDATE c SET v = 3 WHERE k = 3`)
	want := []string{"1|1", "2|0", "3|3"}
	if got := renderRows(exec1(t, e, `SELECT k, v FROM c`).Rows); !sameRows(got, want) {
		t.Fatalf("before the crash: %v, want %v", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	if got := renderRows(exec1(t, r, `SELECT k, v FROM c`).Rows); !sameRows(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if info := r.RecoveryInfo(); info.Orphaned != 1 || info.SavepointLSN == 0 {
		t.Fatalf("recovery info %+v: want the savepoint and one orphan", info)
	}
	exec1(t, r, `UPDATE c SET v = 2 WHERE k = 2`)
	if got := renderRows(exec1(t, r, `SELECT v FROM c WHERE k = 2`).Rows); !sameRows(got, []string{"2"}) {
		t.Fatalf("the orphan's row after an UPDATE: %v", got)
	}
}

// A savepoint carries an in-doubt cold branch as its TID and decision
// alone: its writes are the TID stamps of the exported vectors. After a
// restart the branch stays invisible until ResolveAllInDoubt commits it.
func TestRecoverInDoubtColdBranchFromSavepoint(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	inj.SetSleep(func(time.Duration) {})
	e := openDurable(t, dir, Config{Faults: inj, Retry: faults.RetryPolicy{MaxAttempts: 1}})
	exec1(t, e, `CREATE TABLE psa (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psa VALUES (1), (2)`)
	inj.FailN("txn.commit.extstore:psa", 1)
	ctx := context.Background()
	tx := e.Begin()
	for _, q := range []string{`INSERT INTO psa VALUES (3)`, `DELETE FROM psa WHERE id = 1`} {
		if _, err := e.ExecuteContext(ctx, q, WithTx(tx)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CommitTxContext(ctx, tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	if _, err := e.Savepoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, strings.TrimSpace(string(cur)), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		InDoubt []map[string]json.RawMessage `json:"in_doubt"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.InDoubt) != 1 {
		t.Fatalf("savepoint in-doubt branches = %v", raw.InDoubt)
	}
	for key := range raw.InDoubt[0] {
		if key != "tid" && key != "participant" && key != "cid" {
			t.Errorf("savepoint branch carries %q; the vectors hold its writes", key)
		}
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	if info := r.RecoveryInfo(); info.InDoubt != 1 || info.Orphaned != 0 {
		t.Fatalf("recovery info %+v: want one in-doubt branch and no orphan", info)
	}
	if got := renderRows(exec1(t, r, `SELECT id FROM psa`).Rows); !sameRows(got, []string{"1", "2"}) {
		t.Fatalf("before resolution: %v, want the branch invisible", got)
	}
	if err := r.ResolveAllInDoubt(); err != nil {
		t.Fatal(err)
	}
	if got := renderRows(exec1(t, r, `SELECT id FROM psa`).Rows); !sameRows(got, []string{"2", "3"}) {
		t.Fatalf("after resolution: %v, want [2 3]", got)
	}
}

// Rows that reached a cold partition's disk without a WAL record naming
// them — the log's tail was lost, the chunk was not — have no version after
// recovery and stay invisible; the next insert takes the row id after them.
func TestRecoverIgnoresColdRowsNoRecordNames(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE c (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO c VALUES (1)`)
	store, err := e.ExtendedStore()
	if err != nil {
		t.Fatal(err)
	}
	stray, _ := store.Table("c")
	if err := stray.BulkLoad([]value.Row{{value.NewInt(98)}, {value.NewInt(99)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	if got := renderRows(exec1(t, r, `SELECT id FROM c`).Rows); !sameRows(got, []string{"1"}) {
		t.Fatalf("recovered %v, want [1]", got)
	}
	exec1(t, r, `INSERT INTO c VALUES (2)`)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r = openDurable(t, dir, Config{})
	defer r.Close()
	if got := renderRows(exec1(t, r, `SELECT id FROM c`).Rows); !sameRows(got, []string{"1", "2"}) {
		t.Fatalf("recovered %v, want [1 2]", got)
	}
}

// Ops 3 and 4 once logged extended-storage writes apart; they are retired,
// and a record carrying one is unknown rather than misapplied.
func TestRedoRejectsRetiredOps(t *testing.T) {
	for _, op := range []byte{3, 4} {
		note := encodeRedoNote(op, 0, 0, "t", nil)
		if _, err := decodeRedoNote(note); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %d: decode error %v, want unknown op", op, err)
		}
		if got := FormatRedoNote(note); !strings.HasPrefix(got, "<opaque") {
			t.Errorf("op %d renders as %q", op, got)
		}
	}
}

// A cold table the log drops after the savepoint no longer owns its
// directory: the drop emptied it, or a table created later under the same
// name filled it with its own rows. Recovery skips the dropped table's
// records and lands on the tables the log ends with.
func TestRecoverColdDropAfterSavepoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after []string
		want  []string // rows of c after recovery; nil = no table
	}{
		{"drop", []string{`DROP TABLE c`}, nil},
		{"insert then drop", []string{`INSERT INTO c VALUES (4)`, `DROP TABLE c`}, nil},
		{"drop and create smaller", []string{`DROP TABLE c`, `CREATE TABLE c (id BIGINT) USING EXTENDED STORAGE`, `INSERT INTO c VALUES (7)`}, []string{"7"}},
		{"drop and create wider", []string{`INSERT INTO c VALUES (4)`, `DROP TABLE c`, `CREATE TABLE c (id BIGINT, s VARCHAR(8)) USING EXTENDED STORAGE`, `INSERT INTO c VALUES (7, 'x'), (8, 'y'), (9, 'z'), (10, 'w'), (11, 'v')`}, []string{"10|w", "11|v", "7|x", "8|y", "9|z"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := openDurable(t, dir, Config{})
			exec1(t, e, `CREATE TABLE keep (id BIGINT) USING EXTENDED STORAGE`)
			exec1(t, e, `INSERT INTO keep VALUES (1)`)
			exec1(t, e, `CREATE TABLE c (id BIGINT) USING EXTENDED STORAGE`)
			exec1(t, e, `INSERT INTO c VALUES (1), (2), (3)`)
			if _, err := e.Savepoint(); err != nil {
				t.Fatal(err)
			}
			for _, q := range tc.after {
				exec1(t, e, q)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			r := openDurable(t, dir, Config{})
			defer r.Close()
			if got := renderRows(exec1(t, r, `SELECT id FROM keep`).Rows); !sameRows(got, []string{"1"}) {
				t.Fatalf("keep: %v", got)
			}
			res, err := r.ExecuteContext(context.Background(), `SELECT * FROM c`)
			switch {
			case tc.want == nil && err == nil:
				t.Fatalf("dropped table c reads %v", renderRows(res.Rows))
			case tc.want != nil && err != nil:
				t.Fatal(err)
			case tc.want != nil && !sameRows(renderRows(res.Rows), tc.want):
				t.Fatalf("c: %v, want %v", renderRows(res.Rows), tc.want)
			}
		})
	}
}

// A cold INSERT whose row reaches the tail but whose full tail cannot be
// flushed fails, yet the row stays the transaction's: it is visible once the
// transaction commits, before a crash as after one, because replay stamps
// it the same way.
func TestColdAppendWithFailedFlushMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE c (id BIGINT) USING EXTENDED STORAGE`)
	store, err := e.ExtendedStore()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := store.Table("c")
	// A directory where the manifest's temporary file goes fails its write.
	block := filepath.Join(store.Dir(), c.Name(), "manifest.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(`INSERT INTO c VALUES (0)`)
	for i := 1; i < 4096; i++ {
		fmt.Fprintf(&b, ", (%d)", i)
	}
	ctx := context.Background()
	tx := e.Begin()
	if _, err := e.ExecuteContext(ctx, b.String(), WithTx(tx)); err == nil {
		t.Fatal("the insert that fills the tail flushed through a blocked manifest")
	}
	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(ctx, tx); err != nil {
		t.Fatal(err)
	}
	before := exec1(t, e, `SELECT COUNT(*), SUM(id) FROM c`).Rows
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openDurable(t, dir, Config{})
	defer r.Close()
	after := exec1(t, r, `SELECT COUNT(*), SUM(id) FROM c`).Rows
	if !sameRows(renderRows(before), renderRows(after)) {
		t.Fatalf("before the crash %v, after recovery %v", renderRows(before), renderRows(after))
	}
	if got := renderRows(after); !sameRows(got, []string{"4096|8386560"}) {
		t.Fatalf("count, sum = %v, want every row of the committed insert", got)
	}
}

// recoveryPlacements are the placements of table t (k, v) that recovery
// rebuilds differently: in-memory columns and rows from the savepoint's row
// files, cold rows from extended storage, and a hybrid table's cold
// partition. keyed makes k the primary key.
func recoveryPlacements(keyed bool) map[string]string {
	k := "k BIGINT"
	if keyed {
		k += " PRIMARY KEY"
	}
	return map[string]string{
		"column":      `CREATE TABLE t (` + k + `, v BIGINT)`,
		"row":         `CREATE ROW TABLE t (` + k + `, v BIGINT)`,
		"extended":    `CREATE TABLE t (` + k + `, v BIGINT) USING EXTENDED STORAGE`,
		"hybrid-cold": `CREATE TABLE t (` + k + `, v BIGINT) PARTITION BY RANGE (k) (PARTITION VALUES < 10 USING EXTENDED STORAGE, PARTITION OTHERS)`,
	}
}

// A rolled-back UPDATE or DELETE of a row, then a committed UPDATE of the
// same row: after a restart the row has its committed version only, whether
// a savepoint falls while the rollback's stamps are live, after the
// rollback, or not at all. Replay stamps the rolled-back delete not at all,
// and the committed one over the savepoint's stamp.
func TestRecoverSupersededVersionStaysDead(t *testing.T) {
	for name, ddl := range recoveryPlacements(false) {
		for _, undone := range []string{`UPDATE t SET v = 9 WHERE k = 1`, `DELETE FROM t WHERE k = 1`} {
			for _, sp := range []string{"none", "before rollback", "after rollback"} {
				t.Run(fmt.Sprintf("%s/%s/savepoint %s", name, strings.Fields(undone)[0], sp), func(t *testing.T) {
					dir := t.TempDir()
					e := openDurable(t, dir, Config{})
					exec1(t, e, ddl)
					exec1(t, e, `INSERT INTO t VALUES (1, 0), (20, 0)`)
					tx := e.Begin()
					if _, err := e.ExecuteContext(context.Background(), undone, WithTx(tx)); err != nil {
						t.Fatal(err)
					}
					savepoint := func(when string) {
						if sp == when {
							if _, err := e.Savepoint(); err != nil {
								t.Fatal(err)
							}
						}
					}
					savepoint("before rollback")
					if err := e.Rollback(tx); err != nil {
						t.Fatal(err)
					}
					savepoint("after rollback")
					exec1(t, e, `UPDATE t SET v = 5 WHERE k = 1`)
					want := []string{"1|5", "20|0"}
					if got := renderRows(exec1(t, e, `SELECT k, v FROM t`).Rows); !sameRows(got, want) {
						t.Fatalf("before the restart: %v, want %v", got, want)
					}
					if err := e.Close(); err != nil {
						t.Fatal(err)
					}
					r := openDurable(t, dir, Config{})
					defer r.Close()
					if got := renderRows(exec1(t, r, `SELECT k, v FROM t`).Rows); !sameRows(got, want) {
						t.Fatalf("recovered %v, want %v (%+v)", got, want, r.RecoveryInfo())
					}
				})
			}
		}
	}
}

// A key holds across a restart, whether recovery rebuilds the table from the
// log alone or from a savepoint and the log: a duplicate is still refused, a
// keyed UPDATE succeeds, and a key deleted before the restart can be
// inserted again.
func TestRecoverKeysAcrossRestart(t *testing.T) {
	for name, ddl := range recoveryPlacements(true) {
		for _, withSavepoint := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/savepoint=%v", name, withSavepoint), func(t *testing.T) {
				dir := t.TempDir()
				e := openDurable(t, dir, Config{})
				exec1(t, e, ddl)
				exec1(t, e, `INSERT INTO t VALUES (1, 0), (2, 0), (20, 0)`)
				exec1(t, e, `UPDATE t SET v = 1 WHERE k = 2`)
				if withSavepoint {
					if _, err := e.Savepoint(); err != nil {
						t.Fatal(err)
					}
				}
				exec1(t, e, `DELETE FROM t WHERE k = 1`)
				exec1(t, e, `UPDATE t SET v = 2 WHERE k = 20`)
				if name == "extended" {
					// A row on disk that no record names holds no key.
					store, err := e.ExtendedStore()
					if err != nil {
						t.Fatal(err)
					}
					stray, _ := store.Table("t")
					if err := stray.BulkLoad([]value.Row{{value.NewInt(5), value.NewInt(0)}}); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}

				r := openDurable(t, dir, Config{})
				defer r.Close()
				ctx := context.Background()
				for _, dup := range []string{`INSERT INTO t VALUES (2, 9)`, `INSERT INTO t VALUES (20, 9)`, `UPDATE t SET k = 20 WHERE k = 2`} {
					if _, err := r.ExecuteContext(ctx, dup); !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("%s after the restart: %v, want %v", dup, err, ErrDuplicateKey)
					}
				}
				exec1(t, r, `UPDATE t SET v = 3 WHERE k = 2`)
				exec1(t, r, `INSERT INTO t VALUES (1, 4), (5, 5)`)
				want := []string{"1|4", "20|2", "2|3", "5|5"}
				if got := renderRows(exec1(t, r, `SELECT k, v FROM t`).Rows); !sameRows(got, want) {
					t.Fatalf("after the restart: %v, want %v", got, want)
				}
			})
		}
	}
}

// A BulkLoad whose fifth redo record cannot be written stops there with
// every row it logged stored, so the rows it refused can be inserted later,
// a later INSERT takes the next row id, and a restart recovers the table
// the live engine held. On the hybrid table the cold partition loads whole
// and the hot one is cut.
func TestRecoverBulkLoadCutByLogFailure(t *testing.T) {
	for name, ddl := range recoveryPlacements(true) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.New(1)
			e := openDurable(t, dir, Config{Faults: inj})
			exec1(t, e, ddl)
			var rows []value.Row
			for _, k := range []int64{1, 2, 3, 21, 22, 23} {
				rows = append(rows, value.Row{value.NewInt(k), value.NewInt(0)})
			}
			inj.FailAfter("wal.append", 4, 1)
			if err := e.BulkLoad("t", rows); err == nil {
				t.Fatal("BulkLoad succeeded past a failed redo record")
			}
			exec1(t, e, `INSERT INTO t VALUES (22, 9), (5, 5)`)
			live := renderRows(exec1(t, e, `SELECT k, v FROM t`).Rows)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			r := openDurable(t, dir, Config{})
			defer r.Close()
			if got := renderRows(exec1(t, r, `SELECT k, v FROM t`).Rows); !sameRows(got, live) {
				t.Fatalf("recovered %v, live %v (%+v)", got, live, r.RecoveryInfo())
			}
			if want := []string{"1|0", "21|0", "22|9", "2|0", "3|0", "5|5"}; !sameRows(live, want) {
				t.Fatalf("the cut load and the INSERT left %v, want %v", live, want)
			}
		})
	}
}

// An extended DOUBLE column takes ±Inf and NaN: their chunk's zone keeps a
// bound's bits in the manifest, the values come back to the bit after a
// restart, and a zone-pruned scan still finds the rows a NaN's chunk holds
// (value.Compare puts a NaN above every number, so d > 0 holds for it and
// that chunk is never skipped).
func TestExtendedDoubleKeepsNonFiniteValues(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir, Config{})
	exec1(t, e, `CREATE TABLE c (k BIGINT, d DOUBLE) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO c VALUES (1, 1e308 * 10), (2, -1e308 * 10), (3, (1e308 * 10) - (1e308 * 10)), (4, 2.5), (5, -1.0)`)
	exec1(t, e, `INSERT INTO c VALUES (6, -3.0), (7, -1e308 * 10)`)
	exec1(t, e, `INSERT INTO c VALUES (8, (1e308 * 10) * 0), (9, -7.5)`)
	before := exec1(t, e, `SELECT k, d FROM c ORDER BY k`).Rows
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDurable(t, dir, Config{})
	defer r.Close()
	after := exec1(t, r, `SELECT k, d FROM c ORDER BY k`).Rows
	if len(after) != 9 || len(before) != 9 {
		t.Fatalf("%d rows before the restart, %d after, want 9", len(before), len(after))
	}
	for i, row := range after {
		if math.Float64bits(row[1].F) != math.Float64bits(before[i][1].F) || row[1].K != before[i][1].K {
			t.Errorf("k=%v: %v before the restart, %v after", row[0], before[i][1], row[1])
		}
	}
	if d := after[0][1].F; !math.IsInf(d, 1) || !math.IsInf(after[1][1].F, -1) || !math.IsNaN(after[2][1].F) || !math.IsNaN(after[7][1].F) {
		t.Errorf("non-finite doubles came back as %v", after)
	}
	ext, err := r.ExtendedStore()
	if err != nil {
		t.Fatal(err)
	}
	skipped := ext.Stats.ChunksSkipped.Load()
	got := renderRows(exec1(t, r, `SELECT k FROM c WHERE d > 0`).Rows)
	if want := []string{"1", "3", "4", "8"}; !sameRows(got, want) {
		t.Errorf("WHERE d > 0: %v, want %v", got, want)
	}
	if ext.Stats.ChunksSkipped.Load() == skipped {
		t.Errorf("WHERE d > 0 skipped no chunk: the NaN-free chunk of negatives should go")
	}
	// A NaN meets d >= 100 as Compare has it, on a hot table too: the chunk
	// of (NaN, -7.5), whose other value falls short, is still read.
	exec1(t, r, `CREATE TABLE h (k BIGINT, d DOUBLE)`)
	exec1(t, r, `INSERT INTO h SELECT k, d FROM c`)
	hot := renderRows(exec1(t, r, `SELECT k FROM h WHERE d >= 100`).Rows)
	if cold := renderRows(exec1(t, r, `SELECT k FROM c WHERE d >= 100`).Rows); !sameRows(cold, hot) {
		t.Errorf("WHERE d >= 100: %v cold, %v hot", cold, hot)
	}
}

// A crash after PREPARE and before the decision, in a transaction that
// wrote only a 2-shard table, leaves one undecided branch. Recovery takes
// the presumed abort on the engine's own stamps, so the key is free again,
// and resolution drains the branch through every participant.
func TestRecoverUndecidedShardedBranchReleasesKey(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	inj.SetSleep(func(time.Duration) {})
	cfg := Config{Topology: dist.Topology{Shards: 2}, Faults: inj, Retry: faults.RetryPolicy{MaxAttempts: 1}}
	e := openDurable(t, dir, cfg)
	exec1(t, e, "CREATE TABLE h (id INT PRIMARY KEY, v INT)")
	exec1(t, e, "INSERT INTO h VALUES (1, 10)")
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), "INSERT INTO h VALUES (3, 30)", WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	// PREPARE reaches the log; the COMMIT and ABORT records after it do not.
	inj.FailAfter("wal.append", 1, 1<<30)
	if err := e.CommitTxContext(context.Background(), tx); err == nil {
		t.Fatal("a commit whose decision cannot be logged must fail")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Faults = nil
	r := openDurable(t, dir, cfg)
	defer r.Close()
	if info := r.RecoveryInfo(); info.InDoubt != 1 || info.Orphaned != 0 {
		t.Fatalf("recovery = %+v, want InDoubt 1, Orphaned 0", info)
	}
	if err := r.ResolveAllInDoubt(); err != nil {
		t.Errorf("resolve: %v", err)
	}
	if ind := r.TxnManager().InDoubt(); len(ind) != 0 {
		t.Errorf("in-doubt after resolve = %v", ind)
	}
	if _, err := r.ExecuteContext(context.Background(), "INSERT INTO h VALUES (3, 30)"); err != nil {
		t.Fatalf("re-insert of the undecided key: %v", err)
	}
	const q = "SELECT id, v FROM h ORDER BY id"
	l, err := r.ExecuteContext(context.Background(), q, WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	sameRowsDist(t, q, exec1(t, r, q), l)
	if rows := renderRows(l.Rows); !sameRows(rows, []string{"1|10", "3|30"}) {
		t.Fatalf("rows = %v", rows)
	}
}
