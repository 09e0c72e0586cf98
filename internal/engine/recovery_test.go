package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

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
