package platform

import (
	"context"
	"testing"
	"time"

	"hana/internal/engine"
	"hana/internal/value"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	return New(t.TempDir())
}

func TestArtifactRepositoryVersioning(t *testing.T) {
	p := newPlatform(t)
	a1 := p.SaveArtifact("schema", ArtifactDDL, `CREATE TABLE t (a BIGINT)`)
	if a1.Version != 1 {
		t.Fatalf("v = %d", a1.Version)
	}
	a2 := p.SaveArtifact("schema", ArtifactDDL, `CREATE TABLE t (a BIGINT, b DOUBLE)`)
	if a2.Version != 2 {
		t.Fatalf("v = %d", a2.Version)
	}
	if got, _ := p.Artifact("SCHEMA"); got.Version != 2 {
		t.Fatal("case-insensitive lookup")
	}
	if len(p.Artifacts()) != 1 {
		t.Fatal("artifact list")
	}
}

func TestDeployAndTransportLifecycle(t *testing.T) {
	p := newPlatform(t)
	p.SaveArtifact("schema", ArtifactDDL, `
		CREATE TABLE readings (equip VARCHAR(10), v DOUBLE);
		CREATE TABLE alerts (msg VARCHAR(100))`)
	p.SaveArtifact("seed", ArtifactScript, `INSERT INTO readings VALUES ('EQ1', 1.5)`)
	if err := p.DeployCtx(context.Background(), TierDev, "schema", "seed"); err != nil {
		t.Fatal(err)
	}
	dev, _ := p.System(TierDev)
	res, err := dev.Engine.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM readings`)
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("dev deploy: %v %v", res, err)
	}
	if p.DeployedVersion(TierDev, "schema") != 1 {
		t.Fatal("deployed version")
	}
	// Test tier is untouched until transport.
	test, _ := p.System(TierTest)
	if _, err := test.Engine.ExecuteContext(context.Background(), `SELECT * FROM readings`); err == nil {
		t.Fatal("test tier must not have the table yet")
	}
	if err := p.TransportCtx(context.Background(), TierDev, TierTest); err != nil {
		t.Fatal(err)
	}
	res, err = test.Engine.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM readings`)
	if err != nil || res.Rows[0][0].Int() != 1 {
		t.Fatalf("transport: %v %v", res, err)
	}
	if err := p.TransportCtx(context.Background(), TierProd, TierTest); err == nil {
		t.Fatal("transport from empty tier must error")
	}
}

func TestDeployAtomicCompensation(t *testing.T) {
	p := newPlatform(t)
	p.SaveArtifact("good", ArtifactDDL, `CREATE TABLE ok1 (a BIGINT)`)
	p.SaveArtifact("bad", ArtifactDDL, `CREATE TABLE ok2 (a BIGINT); CREATE BROKEN SYNTAX`)
	if err := p.DeployCtx(context.Background(), TierDev, "good", "bad"); err == nil {
		t.Fatal("broken deploy must fail")
	}
	dev, _ := p.System(TierDev)
	// Everything created during the failed deployment is rolled back.
	if _, err := dev.Engine.ExecuteContext(context.Background(), `SELECT * FROM ok1`); err == nil {
		t.Fatal("ok1 must be compensated away")
	}
	if _, err := dev.Engine.ExecuteContext(context.Background(), `SELECT * FROM ok2`); err == nil {
		t.Fatal("ok2 must be compensated away")
	}
	if p.DeployedVersion(TierDev, "good") != 0 {
		t.Fatal("failed deploy must not record versions")
	}
	if err := p.DeployCtx(context.Background(), TierDev, "missing"); err == nil {
		t.Fatal("unknown artifact must error")
	}
}

func TestCCLArtifactDeployment(t *testing.T) {
	p := newPlatform(t)
	dev, _ := p.System(TierDev)
	_, err := dev.ESP.CreateInputStream("events", value.NewSchema(
		value.Column{Name: "cell", Kind: value.KindInt},
		value.Column{Name: "sig", Kind: value.KindDouble},
	))
	if err != nil {
		t.Fatal(err)
	}
	p.SaveArtifact("monitoring", ArtifactCCL,
		"WINDOW health AS SELECT cell, AVG(sig) FROM events GROUP BY cell KEEP 5 MINUTES")
	if err := p.DeployCtx(context.Background(), TierDev, "monitoring"); err != nil {
		t.Fatal(err)
	}
	if _, ok := dev.ESP.Window("health"); !ok {
		t.Fatal("window not deployed")
	}
	p.SaveArtifact("badccl", ArtifactCCL, "NOT A WINDOW LINE")
	if err := p.DeployCtx(context.Background(), TierDev, "badccl"); err == nil {
		t.Fatal("bad CCL must error")
	}
}

func TestUnifiedCredentials(t *testing.T) {
	p := newPlatform(t)
	p.Users().AddUser("ana", "pw1", RoleAnalyst)
	p.Users().AddUser("ing", "pw2", RoleIngestor)
	p.Users().AddUser("root", "pw3", RoleAdmin)

	if _, err := p.Login(TierDev, "ana", "wrong"); err == nil {
		t.Fatal("bad password must fail")
	}
	dev, _ := p.System(TierDev)
	if _, err := dev.Engine.ExecuteContext(context.Background(), `CREATE TABLE t (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	_, err := dev.ESP.CreateInputStream("s", value.NewSchema(value.Column{Name: "a", Kind: value.KindInt}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ESP.CreateWindow("w", `SELECT * FROM s KEEP 10 ROWS`); err != nil {
		t.Fatal(err)
	}

	ana, err := p.Login(TierDev, "ana", "pw1")
	if err != nil {
		t.Fatal(err)
	}
	// Analyst: can query engine and windows, cannot publish.
	if _, err := ana.QueryCtx(context.Background(), `SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if _, err := ana.WindowRows("w", time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := ana.PublishEvent("s", value.Row{value.NewInt(1)}, time.Now()); err == nil {
		t.Fatal("analyst must not publish")
	}
	// Ingestor: can publish, cannot query — same credential store across
	// both components.
	ing, _ := p.Login(TierDev, "ing", "pw2")
	if err := ing.PublishEvent("s", value.Row{value.NewInt(1)}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := ing.QueryCtx(context.Background(), `SELECT 1`); err == nil {
		t.Fatal("ingestor must not query")
	}
	// Admin can do everything.
	root, _ := p.Login(TierDev, "root", "pw3")
	if _, err := root.QueryCtx(context.Background(), `SELECT 1`); err != nil {
		t.Fatal(err)
	}
	if err := root.PublishEvent("s", value.Row{value.NewInt(2)}, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestSynchronizedBackupRestore(t *testing.T) {
	p := newPlatform(t)
	dev, _ := p.System(TierDev)
	// One in-memory table, one extended table, one hybrid table with aging.
	script := `
		CREATE TABLE hot (id BIGINT, v VARCHAR(10));
		CREATE TABLE archive (id BIGINT, payload VARCHAR(20)) USING EXTENDED STORAGE;
		CREATE TABLE sales (id BIGINT, d DATE, cold BOOLEAN)
			PARTITION BY RANGE (d) (
				PARTITION VALUES < DATE '2014-01-01' USING EXTENDED STORAGE,
				PARTITION OTHERS)
			WITH AGING ON (cold);
		INSERT INTO hot VALUES (1,'a'), (2,'b');
		INSERT INTO archive VALUES (10,'old-1'), (11,'old-2');
		INSERT INTO sales VALUES (1, DATE '2013-06-01', FALSE), (2, DATE '2015-06-01', FALSE)`
	if _, err := dev.Engine.ExecuteContext(context.Background(), script, engine.WithScript()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.BackupCtx(context.Background(), TierDev, dir); err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh tier.
	if err := p.RestoreCtx(context.Background(), TierTest, dir); err != nil {
		t.Fatal(err)
	}
	test, _ := p.System(TierTest)
	for _, q := range []struct {
		sql  string
		want int64
	}{
		{`SELECT COUNT(*) FROM hot`, 2},
		{`SELECT COUNT(*) FROM archive`, 2},
		{`SELECT COUNT(*) FROM sales`, 2},
	} {
		res, err := test.Engine.ExecuteContext(context.Background(), q.sql)
		if err != nil || res.Rows[0][0].Int() != q.want {
			t.Fatalf("%s: %v %v", q.sql, res, err)
		}
	}
	// Placement survives: archive is still an extended table, sales is
	// still hybrid with its cold partition populated by range.
	meta, _ := test.Engine.Catalog().Table("archive")
	if meta.Placement.String() != "EXTENDED" {
		t.Fatalf("archive placement = %v", meta.Placement)
	}
	parts, err := test.Engine.PartitionRowCounts("sales")
	if err != nil {
		t.Fatal(err)
	}
	if !parts[0].Cold || parts[0].Rows != 1 || parts[1].Rows != 1 {
		t.Fatalf("restored partitions = %+v", parts)
	}
	// Aging still works after restore.
	if _, err := test.Engine.ExecuteContext(context.Background(), `UPDATE sales SET cold = TRUE WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	moved, err := test.Engine.RunAgingContext(context.Background(), "sales")
	if err != nil || moved != 1 {
		t.Fatalf("aging after restore: %d %v", moved, err)
	}
}

func TestBackupIsSnapshotConsistent(t *testing.T) {
	p := newPlatform(t)
	dev, _ := p.System(TierDev)
	if _, err := dev.Engine.ExecuteContext(context.Background(), `CREATE TABLE t (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Engine.ExecuteContext(context.Background(), `INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.BackupCtx(context.Background(), TierDev, dir); err != nil {
		t.Fatal(err)
	}
	// Post-backup writes must not appear in the restore.
	if _, err := dev.Engine.ExecuteContext(context.Background(), `INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreCtx(context.Background(), TierProd, dir); err != nil {
		t.Fatal(err)
	}
	prod, _ := p.System(TierProd)
	res, _ := prod.Engine.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("restored rows = %v", res.Rows)
	}
}
