package platform

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hana/internal/catalog"
	"hana/internal/engine"
	"hana/internal/value"
)

// Backups are coordinated across the in-memory engine and the extended
// store: every table — hot, extended or hybrid — is exported under one
// MVCC snapshot, so the restored system is transactionally consistent
// across engines (§2: "backup and recovery between the main-memory based
// SAP HANA core database and the extended IQ store is synchronized
// providing a consistent recovery mechanism").

// backupManifest records the backup content.
type backupManifest struct {
	Tier      string        `json:"tier"`
	CreatedAt time.Time     `json:"created_at"`
	Tables    []backupTable `json:"tables"`
}

type backupTable struct {
	Name        string                  `json:"name"`
	Cols        []value.Column          `json:"cols"`
	Placement   catalog.Placement       `json:"placement"`
	PartitionBy string                  `json:"partition_by,omitempty"`
	Partitions  []catalog.PartitionMeta `json:"partitions,omitempty"`
	AgingColumn string                  `json:"aging_column,omitempty"`
	Rows        int64                   `json:"rows"`
}

// BackupCtx exports every table of the tier under one snapshot into dir.
// Every per-table snapshot SELECT threads ctx, so a canceled backup stops
// between tables.
func (p *Platform) BackupCtx(ctx context.Context, tier Tier, dir string) error {
	sys, err := p.System(tier)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One transaction = one snapshot for every table, spanning the
	// in-memory store and the extended store.
	tx := sys.Engine.Begin()
	defer func() { _ = sys.Engine.Rollback(tx) }()

	man := backupManifest{Tier: string(tier), CreatedAt: time.Now()}
	for _, name := range sys.Engine.Catalog().TableNames() {
		meta, _ := sys.Engine.Catalog().Table(name)
		res, err := sys.Engine.ExecuteContext(ctx, "SELECT * FROM "+quoteIdent(name), engine.WithTx(tx))
		if err != nil {
			return fmt.Errorf("backup %s: %w", name, err)
		}
		f, err := os.Create(filepath.Join(dir, strings.ToLower(name)+".rows"))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, row := range res.Rows {
			if err := enc.Encode(row); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		man.Tables = append(man.Tables, backupTable{
			Name:        meta.Name,
			Cols:        meta.Schema.Cols,
			Placement:   meta.Placement,
			PartitionBy: meta.PartitionBy,
			Partitions:  meta.Partitions,
			AgingColumn: meta.AgingColumn,
			Rows:        int64(len(res.Rows)),
		})
	}
	data, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644)
}

// RestoreCtx loads a backup into a tier, recreating every table (including
// its placement: extended-storage tables go back to the extended store,
// hybrid partitioning and aging columns are preserved). Every recreated
// table's DDL threads ctx, so a canceled restore stops between tables.
func (p *Platform) RestoreCtx(ctx context.Context, tier Tier, dir string) error {
	sys, err := p.System(tier)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	var man backupManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return err
	}
	for _, bt := range man.Tables {
		ddl := restoreDDL(bt)
		if _, err := sys.Engine.ExecuteContext(ctx, ddl); err != nil {
			return fmt.Errorf("restore %s: %w", bt.Name, err)
		}
		f, err := os.Open(filepath.Join(dir, strings.ToLower(bt.Name)+".rows"))
		if err != nil {
			return err
		}
		dec := json.NewDecoder(f)
		var rows []value.Row
		for dec.More() {
			var row value.Row
			if err := dec.Decode(&row); err != nil {
				f.Close()
				return fmt.Errorf("restore %s: %w", bt.Name, err)
			}
			rows = append(rows, row)
		}
		f.Close()
		if err := sys.Engine.BulkLoad(bt.Name, rows); err != nil {
			return fmt.Errorf("restore %s: %w", bt.Name, err)
		}
	}
	return nil
}

// restoreDDL regenerates the CREATE TABLE statement from catalog metadata.
func restoreDDL(bt backupTable) string {
	var b strings.Builder
	b.WriteString("CREATE ")
	if bt.Placement == catalog.PlacementRow {
		b.WriteString("ROW ")
	}
	b.WriteString("TABLE " + quoteIdent(bt.Name) + " (")
	for i, c := range bt.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c.Name) + " " + c.Kind.String())
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteString(")")
	switch bt.Placement {
	case catalog.PlacementExtended:
		b.WriteString(" USING EXTENDED STORAGE")
	case catalog.PlacementHybrid:
		b.WriteString(" PARTITION BY RANGE (" + quoteIdent(bt.PartitionBy) + ") (")
		for i, pm := range bt.Partitions {
			if i > 0 {
				b.WriteString(", ")
			}
			if pm.Others {
				b.WriteString("PARTITION OTHERS")
			} else {
				b.WriteString("PARTITION VALUES < " + pm.UpperBound.SQLLiteral())
			}
			if pm.Cold {
				b.WriteString(" USING EXTENDED STORAGE")
			}
		}
		b.WriteString(")")
	}
	if bt.AgingColumn != "" {
		b.WriteString(" WITH AGING ON (" + quoteIdent(bt.AgingColumn) + ")")
	}
	return b.String()
}

func quoteIdent(s string) string { return `"` + strings.ReplaceAll(s, `"`, `""`) + `"` }
