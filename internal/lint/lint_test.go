package lint_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hana/internal/lint"
)

// loadFixtures parses the corpus under testdata/src — one good + one bad
// file per analyzer, plus a facts package standing in for
// hana/internal/txn.
func loadFixtures(t *testing.T) map[string]*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// wantMarkers extracts `// want <analyzer>` expectations from the fixture
// comments. `// want +N <analyzer>` shifts the expected line N below the
// marker (for lines that cannot carry a trailing comment, like //lint:ignore
// directives). Each marker demands exactly one diagnostic from that
// analyzer on that line.
func wantMarkers(t *testing.T, pkgs map[string]*lint.Package) map[string]int {
	t.Helper()
	want := map[string]int{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					fields := strings.Fields(text)
					if len(fields) < 2 || fields[0] != "want" {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					rest := fields[1:]
					if strings.HasPrefix(rest[0], "+") {
						n, err := strconv.Atoi(rest[0][1:])
						if err != nil || len(rest) < 2 {
							t.Fatalf("%s:%d: malformed want marker %q", pos.Filename, pos.Line, c.Text)
						}
						line += n
						rest = rest[1:]
					}
					for _, analyzer := range rest {
						want[fmt.Sprintf("%s:%d:%s", pos.Filename, line, analyzer)]++
					}
				}
			}
		}
	}
	return want
}

// TestAnalyzerFixtures runs the full suite over the corpus and compares
// the diagnostics, position-exactly, against the want markers: every
// marked line must be reported by the named analyzer, and nothing else may
// be reported at all (which also proves the good.go files come back clean
// and that //lint:ignore suppression works).
func TestAnalyzerFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	want := wantMarkers(t, pkgs)
	if len(want) == 0 {
		t.Fatal("no want markers found in fixture corpus")
	}
	got := map[string]int{}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		if d.Pos.Column <= 0 {
			t.Errorf("diagnostic with no column: %s", d)
		}
		got[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.Analyzer)]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("want %d diagnostic(s) at %s, got %d", n, k, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("unexpected diagnostic at %s (count %d, want %d)", k, n, want[k])
		}
	}
}

// TestGoodFixturesClean pins the corpus layout: every diagnostic must land
// in a bad.go file.
func TestGoodFixturesClean(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		if filepath.Base(d.Pos.Filename) != "bad.go" {
			t.Errorf("diagnostic outside a bad.go fixture: %s", d)
		}
	}
}

// TestEveryAnalyzerFires guards against an analyzer silently going dead:
// each analyzer must produce at least one finding on its bad fixture.
func TestEveryAnalyzerFires(t *testing.T) {
	pkgs := loadFixtures(t)
	fired := map[string]bool{}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		fired[d.Analyzer] = true
	}
	for _, a := range lint.Analyzers() {
		if !fired[a.Name] {
			t.Errorf("analyzer %s produced no findings on the fixture corpus", a.Name)
		}
	}
}

// TestRepositoryIsClean makes `go test` itself enforce a clean hanalint
// run over the real module, mirroring `go run ./cmd/hanalint ./...`.
func TestRepositoryIsClean(t *testing.T) {
	for _, d := range lint.RunProgram(lint.ModuleProgram(t), lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestNewAnalyzersDeterministic runs each interprocedural analyzer 50
// times over the fixture corpus and demands byte-identical
// position-sorted output: map-iteration order must never leak into
// diagnostics (each Run rebuilds the Program from scratch, so the
// summary fixpoints are exercised fresh every iteration).
func TestNewAnalyzersDeterministic(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, a := range []*lint.Analyzer{
		lint.LockSafe, lint.LockOrder, lint.CtxFlow, lint.ResLeak, lint.GuardedBy, lint.GuardCall,
	} {
		var first string
		for i := 0; i < 50; i++ {
			var b strings.Builder
			for _, d := range lint.Run(pkgs, []*lint.Analyzer{a}) {
				fmt.Fprintln(&b, d)
			}
			if i == 0 {
				first = b.String()
				if first == "" {
					t.Fatalf("%s: no diagnostics on the fixture corpus", a.Name)
				}
				continue
			}
			if got := b.String(); got != first {
				t.Fatalf("%s: run %d differs from run 0:\n%s\n--- vs ---\n%s", a.Name, i, got, first)
			}
		}
	}
}

// TestLockGraphDOTDeterministic pins the `hanalint -lockgraph` dump
// byte-for-byte across 50 fresh Program builds.
func TestLockGraphDOTDeterministic(t *testing.T) {
	pkgs := loadFixtures(t)
	first := lint.LockGraphDOT(lint.BuildProgram(pkgs))
	if !strings.Contains(first, "digraph lockorder") || !strings.Contains(first, "->") {
		t.Fatalf("DOT output missing structure:\n%s", first)
	}
	for i := 1; i < 50; i++ {
		if got := lint.LockGraphDOT(lint.BuildProgram(pkgs)); got != first {
			t.Fatalf("DOT run %d differs:\n%s\n--- vs ---\n%s", i, got, first)
		}
	}
}

// TestMetastoreLockGraphRegression pins the critical-section fix in
// internal/hive: the metastore must never hold Metastore.mu across a
// call into the simulated-remote HDFS layer (the lock-order finding
// fixed alongside this analyzer's introduction).
func TestMetastoreLockGraphRegression(t *testing.T) {
	for _, e := range lint.ModuleProgram(t).LockGraph() {
		if e.From == "hive.Metastore.mu" && strings.HasPrefix(e.To, "hdfs.") {
			t.Errorf("metastore holds %s across an HDFS call (edge to %s): critical sections must end before cluster I/O", e.From, e.To)
		}
	}
}

// TestFilterPatterns covers the package-pattern matching used by the
// hanalint command line.
func TestFilterPatterns(t *testing.T) {
	pkgs := loadFixtures(t)
	sub := lint.Filter(pkgs, "hana", []string{"./internal/..."})
	var paths []string
	for p := range sub {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	want := []string{
		"hana/internal/ctxflow", "hana/internal/diskstore",
		"hana/internal/dist", "hana/internal/engine",
		"hana/internal/faults", "hana/internal/fed",
		"hana/internal/guardwire", "hana/internal/remote",
		"hana/internal/txn",
	}
	if fmt.Sprint(paths) != fmt.Sprint(want) {
		t.Errorf("Filter(./internal/...) = %v, want %v", paths, want)
	}
	if len(lint.Filter(pkgs, "hana", []string{"./..."})) != len(pkgs) {
		t.Error("./... must keep every package")
	}
	one := lint.Filter(pkgs, "hana", []string{"./locksafe"})
	if len(one) != 1 || one["hana/locksafe"] == nil {
		t.Errorf("single-package filter kept %d packages", len(one))
	}
}
