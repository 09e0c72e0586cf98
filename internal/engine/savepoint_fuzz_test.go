package engine

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hana/internal/catalog"
	"hana/internal/txn"
)

// A savepoint manifest is bytes from disk too: Open over a data directory
// whose CURRENT names it returns an engine or an error, never a panic, and
// rejects a manifest whose version vectors or table meta recovery could not
// index by.

// savepointFiles takes a real savepoint of a two-row table and returns its
// manifest and every file of its directory.
func savepointFiles(t testing.TB) (spManifest, map[string][]byte) {
	dir := t.TempDir()
	e, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`CREATE TABLE t (id BIGINT, v VARCHAR(10))`, `INSERT INTO t VALUES (1, 'a'), (2, 'b')`} {
		if _, err := e.ExecuteContext(context.Background(), q); err != nil {
			t.Fatal(err)
		}
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
	spDir := filepath.Join(dir, strings.TrimSpace(string(cur)))
	entries, err := os.ReadDir(spDir)
	if err != nil {
		t.Fatal(err)
	}
	var m spManifest
	files := map[string][]byte{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(spDir, ent.Name()))
		if err == nil && ent.Name() == "manifest.json" {
			err = json.Unmarshal(data, &m)
		}
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = data
	}
	return m, files
}

// hostileSavepoints are edits of a valid manifest that Open must reject.
func hostileSavepoints(t testing.TB, m spManifest) map[string]spManifest {
	edit := func(f func(st *spTable, p *spPart)) spManifest {
		c := m
		c.Tables = append([]spTable(nil), m.Tables...)
		st := &c.Tables[0]
		st.Parts = append([]spPart(nil), st.Parts...)
		f(st, &st.Parts[0])
		return c
	}
	grow := func(v *txn.VersionSnapshot, n int) {
		for _, s := range []*[]uint64{&v.Ins, &v.Del} {
			*s = append((*s)[:len(*s):len(*s)], make([]uint64, n)...)
		}
	}
	meta := func(f func(*catalog.TableMeta)) json.RawMessage {
		var tm catalog.TableMeta
		if err := json.Unmarshal(m.Tables[0].Meta, &tm); err != nil {
			t.Fatal(err)
		}
		f(&tm)
		data, err := json.Marshal(&tm)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	return map[string]spManifest{
		// RowVersions.Import indexes both vectors by Ins's length: index
		// out of range.
		"short Del": edit(func(_ *spTable, p *spPart) { p.Vers.Del = []uint64{} }),
		// An in-flight stamp of TID 0 names no transaction that could
		// resolve it.
		"stamp of TID 0": edit(func(_ *spTable, p *spPart) {
			p.Vers.Ins = append([]uint64{1 << 63}, p.Vers.Ins[1:]...)
		}),
		"negative rows":           edit(func(_ *spTable, p *spPart) { p.Rows = -1 }),
		"rows beyond the file":    edit(func(_ *spTable, p *spPart) { p.Rows += 2; grow(&p.Vers, 2) }),
		"more versions than rows": edit(func(_ *spTable, p *spPart) { grow(&p.Vers, 1) }),
		// The column store's constructor and the row store's key index
		// dereferenced these.
		"no schema": edit(func(st *spTable, _ *spPart) {
			st.Meta = meta(func(tm *catalog.TableMeta) { tm.Schema = nil })
		}),
		"key outside a row table": edit(func(st *spTable, _ *spPart) {
			st.Meta = meta(func(tm *catalog.TableMeta) { tm.Placement, tm.PrimaryKey = catalog.PlacementRow, 2 })
		}),
	}
}

// openSavepoint writes manifest as the savepoint CURRENT names in a fresh
// data directory, beside files, and opens the engine there.
func openSavepoint(t testing.TB, manifest []byte, files map[string][]byte) (*Engine, error) {
	dir := t.TempDir()
	const name = "sp_0000000000000001"
	sp := filepath.Join(dir, name)
	err := os.Mkdir(sp, 0o755)
	for f, data := range files {
		if err == nil {
			err = os.WriteFile(filepath.Join(sp, f), data, 0o644)
		}
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(sp, "manifest.json"), manifest, 0o644)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "CURRENT"), []byte(name), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	return Open(Config{DataDir: dir})
}

func TestOpenRejectsHostileSavepoints(t *testing.T) {
	m, files := savepointFiles(t)
	valid, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := openSavepoint(t, valid, files)
	if err != nil {
		t.Fatalf("Open over the valid savepoint: %v", err)
	}
	res, err := e.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Errorf("valid savepoint: COUNT(*) = %v, %v; want 2", res, err)
	}
	_ = e.Close()
	for name, hm := range hostileSavepoints(t, m) {
		data, err := json.Marshal(&hm)
		if err != nil {
			t.Fatal(err)
		}
		if e, err := openSavepoint(t, data, files); err == nil {
			_ = e.Close()
			t.Errorf("%s: Open accepted the manifest", name)
		}
	}
}

func FuzzLoadSavepoint(f *testing.F) {
	m, files := savepointFiles(f)
	seeds := hostileSavepoints(f, m)
	seeds["valid"] = m
	for _, sm := range seeds {
		data, err := json.Marshal(&sm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := openSavepoint(t, data, files); err == nil {
			_ = e.Close()
		}
	})
}
