package lint

import (
	"path/filepath"
	"sort"
	"testing"
)

func TestParseEscapeLine(t *testing.T) {
	file, line, msg, ok := parseEscapeLine("internal/exec/join.go:84:38: row.Clone() escapes to heap")
	if !ok || file != "internal/exec/join.go" || line != 84 || msg != "row.Clone() escapes to heap" {
		t.Fatalf("parsed (%q, %d, %q, %v)", file, line, msg, ok)
	}
	if _, _, _, ok := parseEscapeLine("# command-line chatter"); ok {
		t.Error("comment parsed as escape line")
	}
	if _, _, _, ok := parseEscapeLine("join.go: escapes to heap but no position"); ok {
		t.Error("malformed line parsed as escape line")
	}
	if _, _, _, ok := parseEscapeLine("internal/exec/join.go:84:38: inlining call to foo"); ok {
		t.Error("inlining chatter parsed as escape line")
	}
}

func TestDiffEscapes(t *testing.T) {
	a := EscapeSite{File: "a.go", Func: "p.f", Msg: "x escapes to heap"}
	b := EscapeSite{File: "b.go", Func: "p.g", Msg: "y escapes to heap"}
	c := EscapeSite{File: "c.go", Func: "p.h", Msg: "z escapes to heap"}
	baseline := map[string]bool{a.String(): true, b.String(): true}

	fresh, stale := DiffEscapes([]EscapeSite{a, c}, baseline)
	if len(fresh) != 1 || fresh[0] != c {
		t.Errorf("new sites = %v, want [%v]", fresh, c)
	}
	if len(stale) != 1 || stale[0] != b.String() {
		t.Errorf("stale sites = %v, want [%q]", stale, b.String())
	}

	fresh, stale = DiffEscapes([]EscapeSite{a, b}, baseline)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Errorf("identical sets diff to new=%v stale=%v", fresh, stale)
	}
}

func TestEscapeBaselineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "escapes_baseline.txt")
	sites := []EscapeSite{
		{File: "a.go", Func: "p.f", Msg: "x escapes to heap"},
		{File: "b.go", Func: "p.g", Msg: "y escapes to heap"},
	}
	if err := WriteEscapeBaseline(path, sites); err != nil {
		t.Fatal(err)
	}
	baseline, err := ReadEscapeBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) != len(sites) {
		t.Fatalf("round-trip kept %d entries, want %d", len(keys), len(sites))
	}
	for i, s := range sites {
		if keys[i] != s.String() {
			t.Errorf("entry %d = %q, want %q", i, keys[i], s.String())
		}
	}
}

// TestHotSetContainsExecutorCore pins the reachability derivation: the
// operators and leaves the executor drives per row must come out hot, and
// every HotRoots entry must resolve against the real module (an unmatched
// root means an operator was renamed out from under the list).
func TestHotSetContainsExecutorCore(t *testing.T) {
	prog := ModuleProgram(t)
	if unmatched := prog.UnmatchedHotRoots(); len(unmatched) > 0 {
		t.Errorf("unmatched hot roots: %v", unmatched)
	}
	hot := prog.HotFuncs()
	for _, key := range []string{
		"hana/internal/exec.ParallelHashAggregate.Run",
		"hana/internal/exec.HashJoinProbeOrdinals",
		"hana/internal/engine.planner.scan",
		"hana/internal/colstore.Column.MinMax",
		"hana/internal/expr.In.Eval",
		"hana/internal/value.Value.Hash",
	} {
		if _, ok := hot[key]; !ok {
			t.Errorf("%s missing from the hot set", key)
		}
	}
	// Reachability, not just roots: Column.Get is hot only via its callers.
	if chain, ok := hot["hana/internal/colstore.Column.Get"]; !ok || chain == "" {
		t.Errorf("colstore.Column.Get should be hot via a call chain, got (%q, %v)", chain, ok)
	}
}

func TestPruneEscapeBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "escapes_baseline.txt")
	a := EscapeSite{File: "a.go", Func: "p.f", Msg: "x escapes to heap"}
	b := EscapeSite{File: "b.go", Func: "p.g", Msg: "y escapes to heap"}
	if err := WriteEscapeBaseline(path, []EscapeSite{a, b}); err != nil {
		t.Fatal(err)
	}
	// b vanished from the tree: prune drops exactly it, keeps comments + a.
	removed, err := PruneEscapeBaseline(path, []EscapeSite{a})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != b.String() {
		t.Fatalf("removed = %v, want [%q]", removed, b.String())
	}
	baseline, err := ReadEscapeBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) != 1 || !baseline[a.String()] {
		t.Fatalf("pruned baseline = %v, want only %q", baseline, a.String())
	}
	// Already-clean baseline: prune is a no-op and reports nothing.
	removed, err = PruneEscapeBaseline(path, []EscapeSite{a})
	if err != nil || removed != nil {
		t.Fatalf("no-op prune: removed=%v err=%v", removed, err)
	}
}
