package engine

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hana/internal/faults"
	"hana/internal/value"
)

func TestSystemViewMTables(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE plain (a BIGINT)`)
	exec1(t, e, `CREATE TABLE arch (a BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO plain VALUES (1), (2)`)
	res := exec1(t, e, `SELECT table_name, placement, row_count FROM M_TABLES() ORDER BY table_name`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "arch" || res.Rows[0][1].String() != "EXTENDED" {
		t.Fatalf("arch row = %v", res.Rows[0])
	}
	if res.Rows[1][2].Int() != 2 {
		t.Fatalf("plain row_count = %v", res.Rows[1])
	}
}

func TestSystemViewTransactions(t *testing.T) {
	e := newTestEngine(t)
	tx := e.Begin()
	res := exec1(t, e, `SELECT val FROM M_TRANSACTIONS() WHERE metric = 'active_transactions'`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("active = %v", res.Rows[0][0])
	}
	_ = e.Rollback(tx)
}

func TestFederationStatsView(t *testing.T) {
	e, _ := newFederatedSetup(t)
	exec1(t, e, `SELECT c_name FROM V_CUSTOMER WHERE c_custkey = 1`)
	res := exec1(t, e, `SELECT val FROM M_FEDERATION_STATISTICS() WHERE metric = 'remote_queries'`)
	if res.Rows[0][0].Int() < 1 {
		t.Fatalf("remote_queries = %v", res.Rows[0][0])
	}
	res = exec1(t, e, `SELECT COUNT(*) FROM M_VIRTUAL_TABLES()`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("virtual tables = %v", res.Rows[0][0])
	}
	res = exec1(t, e, `SELECT capabilities FROM M_REMOTE_SOURCES() WHERE source_name = 'HIVE1'`)
	if !strings.Contains(res.Rows[0][0].String(), "CAP_JOINS") {
		t.Fatalf("caps = %v", res.Rows[0][0])
	}
}

func TestExecuteParams(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT, s VARCHAR(10))`)
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (?, ?)`,
		WithParams(value.NewInt(1), value.NewString("one"))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO t VALUES (?, ?)`,
		WithParams(value.NewInt(2), value.NewString("two"))); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteContext(context.Background(), `SELECT s FROM t WHERE a = ?`, WithParams(value.NewInt(2)))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].String() != "two" {
		t.Fatalf("param select: %v %v", res, err)
	}
	// Update and delete with parameters.
	if _, err := e.ExecuteContext(context.Background(), `UPDATE t SET s = ? WHERE a = ?`,
		WithParams(value.NewString("uno"), value.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	res, _ = e.ExecuteContext(context.Background(), `SELECT s FROM t WHERE a = ?`, WithParams(value.NewInt(1)))
	if res.Rows[0][0].String() != "uno" {
		t.Fatal("param update")
	}
	if _, err := e.ExecuteContext(context.Background(), `DELETE FROM t WHERE a = ?`, WithParams(value.NewInt(1))); err != nil {
		t.Fatal(err)
	}
	res = exec1(t, e, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatal("param delete")
	}
	// Missing parameter errors.
	if _, err := e.ExecuteContext(context.Background(), `SELECT * FROM t WHERE a = ?`); err == nil {
		t.Fatal("missing parameter must error")
	}
}

func TestResolveInDoubtThroughEngine(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE psa (id BIGINT) USING EXTENDED STORAGE`)
	// Inject a commit-phase failure on the extended-store participant.
	inj := faults.New(1)
	e.TxnManager().SetInjector(inj)
	inj.FailN("txn.commit.extstore:psa", 1)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psa VALUES (1)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	ind := e.TxnManager().InDoubt()
	if len(ind) != 1 {
		t.Fatalf("in-doubt = %v", ind)
	}
	// Manual resolution re-delivers the commit; the row becomes visible.
	if err := e.ResolveInDoubt(tx.TID, true); err != nil {
		t.Fatal(err)
	}
	res := exec1(t, e, `SELECT COUNT(*) FROM psa`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("post-resolve count = %v", res.Rows[0][0])
	}
	if err := e.ResolveInDoubt(999, true); err == nil {
		t.Fatal("unknown tid must error")
	}
}

// blockManifest squats a directory on the table's manifest.json.tmp path so
// the next diskstore manifest save fails; the returned func unblocks it.
func blockManifest(t *testing.T, dir, table string) func() {
	t.Helper()
	block := filepath.Join(dir, table, "manifest.json.tmp")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(block); err != nil {
			t.Fatal(err)
		}
	}
}

// A cold DELETE is a version stamp and nothing else: with every manifest
// save failing it still commits. A cold INSERT reaches the disk at prepare,
// so the same failure is a no vote that aborts the transaction, and its row
// never becomes visible.
func TestColdDeleteWritesNoManifest(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{ExtendedStorageDir: dir})
	exec1(t, e, `CREATE TABLE psb (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psb VALUES (1), (2)`)
	unblock := blockManifest(t, dir, "psb")
	exec1(t, e, `DELETE FROM psb WHERE id = 1`)
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psb VALUES (3)`); err == nil {
		t.Fatal("an insert whose prepare cannot reach the disk must abort")
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
		t.Fatalf("in-doubt = %v", ind)
	}
	unblock()
	exec1(t, e, `INSERT INTO psb VALUES (4)`)
	rows := renderRows(exec1(t, e, `SELECT id FROM psb`).Rows)
	if !sameRows(rows, []string{"2", "4"}) {
		t.Fatalf("rows = %v, want [2 4]", rows)
	}
}

// Storage that fails every manifest save cannot hold a commit up: the cold
// participant's Commit only stamps versions. A commit-phase failure still
// leaves the branch in-doubt and invisible; a failed resolution keeps it so,
// and a retry completes the commit exactly once.
func TestResolveRetryAfterCommitStorageFailure(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{ExtendedStorageDir: dir})
	exec1(t, e, `CREATE TABLE psb (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psb VALUES (1), (2)`)
	unblock := blockManifest(t, dir, "psb")
	inj := faults.New(1)
	e.TxnManager().SetInjector(inj)
	inj.FailN("txn.commit.extstore:psb", 2)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `DELETE FROM psb WHERE id = 1`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 1 {
		t.Fatalf("in-doubt = %v", ind)
	}
	if err := e.ResolveInDoubt(tx.TID, true); err == nil {
		t.Fatal("resolve must surface the commit failure")
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 1 {
		t.Fatalf("branch must stay in-doubt after failed resolve, got %v", ind)
	}
	if n := exec1(t, e, `SELECT COUNT(*) FROM psb`).Rows[0][0].Int(); n != 2 {
		t.Fatalf("count = %d while in-doubt, want the delete invisible", n)
	}
	if err := e.ResolveInDoubt(tx.TID, true); err != nil {
		t.Fatal(err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
		t.Fatalf("branch still in-doubt after resolve: %v", ind)
	}
	if n := exec1(t, e, `SELECT COUNT(*) FROM psb`).Rows[0][0].Int(); n != 1 {
		t.Fatalf("post-resolve count = %d, want 1 (commit lost on retry)", n)
	}
	unblock()
}

// Aborting an in-doubt cold branch only reverts its version stamps, so it
// succeeds while every manifest save fails, and the prepared rows never
// become visible.
func TestAbortBestEffortOnStorageFailure(t *testing.T) {
	dir := t.TempDir()
	e := New(Config{ExtendedStorageDir: dir})
	exec1(t, e, `CREATE TABLE psc (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psc VALUES (1)`)
	// Park the branch in-doubt with durably prepared inserts.
	inj := faults.New(1)
	e.TxnManager().SetInjector(inj)
	inj.FailN("txn.commit.extstore:psc", 1)
	tx := e.Begin()
	if _, err := e.ExecuteContext(context.Background(), `INSERT INTO psc VALUES (2), (3)`, WithTx(tx)); err != nil {
		t.Fatal(err)
	}
	if err := e.CommitTxContext(context.Background(), tx); err != nil {
		t.Fatalf("decision was commit: %v", err)
	}
	unblock := blockManifest(t, dir, "psc")
	if n := exec1(t, e, `SELECT COUNT(*) FROM psc`).Rows[0][0].Int(); n != 1 {
		t.Fatalf("prepared rows leaked into visibility: count = %d", n)
	}
	if err := e.ResolveInDoubt(tx.TID, false); err != nil {
		t.Fatal(err)
	}
	if ind := e.TxnManager().InDoubt(); len(ind) != 0 {
		t.Fatalf("branch still in-doubt after abort: %v", ind)
	}
	if n := exec1(t, e, `SELECT COUNT(*) FROM psc`).Rows[0][0].Int(); n != 1 {
		t.Fatalf("post-abort count = %d, want 1", n)
	}
	unblock()
	exec1(t, e, `INSERT INTO psc VALUES (4)`)
	if n := exec1(t, e, `SELECT COUNT(*) FROM psc`).Rows[0][0].Int(); n != 2 {
		t.Fatalf("count = %d after a later insert, want 2", n)
	}
}

// A cold participant that votes no hears no abort from the coordinator,
// yet the statement-time stamps it holds are reverted: the row its DELETE
// stamped stays visible and deletable.
func TestPrepareFailureRevertsColdStamps(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE psd (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO psd VALUES (1)`)
	inj := faults.New(1)
	e.TxnManager().SetInjector(inj)
	inj.FailN("txn.prepare.extstore:psd", 1)
	if _, err := e.ExecuteContext(context.Background(), `UPDATE psd SET id = 2 WHERE id = 1`); err == nil {
		t.Fatal("the prepare failure must abort the UPDATE")
	}
	if res := exec1(t, e, `DELETE FROM psd WHERE id = 1`); res.Affected != 1 {
		t.Fatalf("DELETE affected %d rows after the aborted UPDATE, want 1", res.Affected)
	}
	if n := exec1(t, e, `SELECT COUNT(*) FROM psd`).Rows[0][0].Int(); n != 0 {
		t.Fatalf("count = %d, want 0", n)
	}
}

func TestGeoSpatialFunctions(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE stations (name VARCHAR(20), lat DOUBLE, lon DOUBLE)`)
	exec1(t, e, `INSERT INTO stations VALUES
		('walldorf',  49.306, 8.642),
		('brussels',  50.850, 4.352),
		('tokyo',     35.676, 139.650)`)
	// Distance Walldorf→Brussels ≈ 350 km.
	res := exec1(t, e, `SELECT name, ST_DISTANCE(lat, lon, 49.306, 8.642) d
		FROM stations WHERE ST_DISTANCE(lat, lon, 49.306, 8.642) < 1000000 ORDER BY d`)
	if len(res.Rows) != 2 {
		t.Fatalf("within 1000km = %v", res.Rows)
	}
	if res.Rows[0][0].String() != "walldorf" || res.Rows[1][0].String() != "brussels" {
		t.Fatalf("order = %v", res.Rows)
	}
	d := res.Rows[1][1].Float()
	if d < 300000 || d > 420000 {
		t.Fatalf("walldorf-brussels distance = %f m", d)
	}
	// Bounding box over central Europe excludes Tokyo.
	res = exec1(t, e, `SELECT COUNT(*) FROM stations WHERE ST_WITHIN_RECT(lat, lon, 45, 2, 55, 12)`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("bbox count = %v", res.Rows[0][0])
	}
}

func TestAlterTableAddColumn(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1)`)
	exec1(t, e, `ALTER TABLE t ADD (b VARCHAR(10), c DOUBLE)`)
	exec1(t, e, `INSERT INTO t VALUES (2, 'x', 1.5)`)
	res := exec1(t, e, `SELECT a, b, c FROM t ORDER BY a`)
	if !res.Rows[0][1].IsNull() || res.Rows[1][1].String() != "x" {
		t.Fatalf("altered rows = %v", res.Rows)
	}
	if _, err := e.ExecuteContext(context.Background(), `ALTER TABLE t ADD (a BIGINT)`); err == nil {
		t.Fatal("duplicate column must error")
	}
	if _, err := e.ExecuteContext(context.Background(), `ALTER TABLE t ADD (d BIGINT NOT NULL)`); err == nil {
		t.Fatal("NOT NULL add must error")
	}
}

func TestAlterExtendedTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE arch (id BIGINT) USING EXTENDED STORAGE`)
	exec1(t, e, `INSERT INTO arch VALUES (1), (2)`)
	exec1(t, e, `ALTER TABLE arch ADD (note VARCHAR(20))`)
	exec1(t, e, `INSERT INTO arch VALUES (3, 'new')`)
	res := exec1(t, e, `SELECT id, note FROM arch ORDER BY id`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[0][1].IsNull() || res.Rows[2][1].String() != "new" {
		t.Fatalf("extended alter = %v", res.Rows)
	}
	// Old rows remain updatable after the schema change.
	exec1(t, e, `UPDATE arch SET note = 'backfilled' WHERE id = 1`)
	res = exec1(t, e, `SELECT note FROM arch WHERE id = 1`)
	if res.Rows[0][0].String() != "backfilled" {
		t.Fatalf("post-alter update = %v", res.Rows)
	}
}

func TestAlterHybridTable(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE h (id BIGINT, d DATE)
		PARTITION BY RANGE (d) (
			PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
			PARTITION OTHERS)`)
	exec1(t, e, `INSERT INTO h VALUES (1, DATE '2013-01-01'), (2, DATE '2015-01-01')`)
	exec1(t, e, `ALTER TABLE h ADD (tag VARCHAR(8))`)
	res := exec1(t, e, `SELECT COUNT(*) FROM h WHERE tag IS NULL`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("hybrid alter = %v", res.Rows)
	}
}
