package lint

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Compiler-assisted escape gate: `hanalint -escapes` runs
// `go build -gcflags=-m ./...`, keeps the heap-escape diagnostics that land
// inside hot functions, and diffs them against a checked-in baseline
// (internal/lint/escapes_baseline.txt). A new escape on a hot path fails
// the gate, and so does an entry the compiler no longer reports (drop it
// with -write-escapes when the improvement is deliberate).
//
// Baseline entries are normalized without line numbers —
// "file<TAB>function<TAB>message" — so unrelated edits that shift lines do
// not churn the file, while a new escaping expression (the message embeds
// the expression text) or an old one in a new function still shows up.

// EscapeSite is one heap-escape diagnostic attributed to a hot function.
type EscapeSite struct {
	File string // module-relative path
	Func string // FuncRef.Short() of the enclosing hot function
	Msg  string // compiler message, e.g. "make([]byte, 9) escapes to heap"
}

func (s EscapeSite) String() string { return s.File + "\t" + s.Func + "\t" + s.Msg }

// EscapeSites compiles the module with -gcflags=-m and returns the
// deduplicated, sorted heap-escape sites inside hot functions of prog.
func EscapeSites(root string, prog *Program) ([]EscapeSite, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stderr = &out
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %w\n%s", err, out.String())
	}
	index := hotDeclIndex(root, prog)
	seen := map[string]bool{}
	var sites []EscapeSite
	for _, line := range strings.Split(out.String(), "\n") {
		file, ln, msg, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		fn, ok := index.lookup(file, ln)
		if !ok {
			continue
		}
		s := EscapeSite{File: file, Func: fn, Msg: msg}
		if key := s.String(); !seen[key] {
			seen[key] = true
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].String() < sites[j].String() })
	return sites, nil
}

// parseEscapeLine extracts (file, line, message) from a
// "path/file.go:12:34: x escapes to heap" diagnostic; ok is false for
// inlining chatter and package headers.
func parseEscapeLine(line string) (string, int, string, bool) {
	line = strings.TrimSpace(line)
	if !strings.Contains(line, "escapes to heap") && !strings.Contains(line, "moved to heap") {
		return "", 0, "", false
	}
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
		return "", 0, "", false
	}
	ln, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	return filepath.ToSlash(parts[0]), ln, strings.TrimSpace(parts[3]), true
}

// declRange is one hot function's line extent within a file.
type declRange struct {
	start, end int
	fn         string
}

type declIndex map[string][]declRange

// hotDeclIndex maps module-relative file paths to the line ranges of hot
// function declarations.
func hotDeclIndex(root string, prog *Program) declIndex {
	hot := prog.HotFuncs()
	idx := declIndex{}
	for _, info := range prog.FuncsSorted() {
		if _, ok := hot[info.Ref.key()]; !ok {
			continue
		}
		fset := info.Pkg.Fset
		start := fset.Position(info.Decl.Pos())
		end := fset.Position(info.Decl.End())
		file := start.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		idx[file] = append(idx[file], declRange{start: start.Line, end: end.Line, fn: info.Ref.Short()})
	}
	for _, rs := range idx {
		sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	}
	return idx
}

func (idx declIndex) lookup(file string, line int) (string, bool) {
	for _, r := range idx[file] {
		if line >= r.start && line <= r.end {
			return r.fn, true
		}
	}
	return "", false
}

// ReadEscapeBaseline parses the checked-in baseline: one normalized site
// per line, '#' comments and blanks ignored.
func ReadEscapeBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		out[line] = true
	}
	return out, nil
}

// DiffEscapes splits current sites into new (not in baseline) and lists
// stale baseline entries no longer reported.
func DiffEscapes(sites []EscapeSite, baseline map[string]bool) (newSites []EscapeSite, stale []string) {
	current := map[string]bool{}
	for _, s := range sites {
		key := s.String()
		current[key] = true
		if !baseline[key] {
			newSites = append(newSites, s)
		}
	}
	for key := range baseline {
		if !current[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return newSites, stale
}

// UpdateEscapeBaseline rewrites the baseline to the current sites: comment
// and blank lines and the entries the tree still reports stay where they
// are, stale and repeated entries go, and new sites are appended in order. A missing
// file starts empty. It returns the removed and the appended entries. The
// gate treats stale entries as failures: a baseline that over-claims hides
// the moment an escape genuinely comes back.
func UpdateEscapeBaseline(path string, sites []EscapeSite) (removed, added []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	unwritten := map[string]bool{}
	for _, s := range sites {
		unwritten[s.String()] = true
	}
	var b strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" { // after the last newline
			continue
		}
		line = strings.TrimRight(line, "\r\n")
		if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "#") || unwritten[line] {
			b.WriteString(line + "\n")
			delete(unwritten, line)
		} else {
			removed = append(removed, line)
		}
	}
	for _, s := range sites {
		if key := s.String(); unwritten[key] {
			b.WriteString(key + "\n")
			delete(unwritten, key)
			added = append(added, key)
		}
	}
	if removed == nil && added == nil {
		return nil, nil, nil
	}
	return removed, added, os.WriteFile(path, []byte(b.String()), 0o644)
}
