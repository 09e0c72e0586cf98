package engine

import (
	"context"
	"os"
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
