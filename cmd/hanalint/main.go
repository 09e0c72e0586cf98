// Command hanalint runs the project's static-analysis suite (internal/lint)
// over the repository and prints file:line:col diagnostics. It exits 0 when
// clean, 1 on findings, and 2 on load/usage errors.
//
// Usage:
//
//	go run ./cmd/hanalint ./...            # whole repo
//	go run ./cmd/hanalint ./internal/esp   # one package
//	go run ./cmd/hanalint -list            # list analyzers
//	go run ./cmd/hanalint -lockgraph       # lock-order graph as DOT
//	go run ./cmd/hanalint -hot             # hot-function set + call chains
//	go run ./cmd/hanalint -escapes         # diff hot-path heap escapes vs baseline
//	go run ./cmd/hanalint -write-escapes   # update the escape baseline, comments kept
//	go run ./cmd/hanalint -suggest-guards  # advisory // hana:guardedby candidates
//	go run ./cmd/hanalint -json ./...      # findings as a JSON array (CI artifact)
//
// Deliberate violations are suppressed in source with
// //lint:ignore <analyzer> <reason> on the offending line or the line
// above; a directive naming an analyzer -list does not print is itself a
// finding. The suite is stdlib-only: go/ast, go/parser, go/token (the
// -escapes mode additionally shells out to the Go compiler for -m output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hana/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	root := flag.String("root", "", "module root (default: nearest dir with go.mod)")
	lockgraph := flag.Bool("lockgraph", false, "dump the global lock-order graph as DOT and exit")
	hot := flag.Bool("hot", false, "print the derived hot-function set with call chains and exit")
	escapes := flag.Bool("escapes", false, "diff hot-path heap escapes against internal/lint/escapes_baseline.txt")
	writeEscapes := flag.Bool("write-escapes", false, "update the escape baseline: drop stale entries, append new ones, keep comments")
	suggestGuards := flag.Bool("suggest-guards", false, "print advisory // hana:guardedby candidates for unannotated shared fields")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hanalint [-list] [-lockgraph] [-hot] [-escapes] [-write-escapes] [-suggest-guards] [-json] [-root dir] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanalint:", err)
			os.Exit(2)
		}
	}

	pkgs, err := lint.Load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanalint:", err)
		os.Exit(2)
	}
	if *lockgraph {
		fmt.Print(lint.LockGraphDOT(lint.BuildProgram(pkgs)))
		return
	}
	if *hot {
		printHotSet(lint.BuildProgram(pkgs))
		return
	}
	if *escapes || *writeEscapes {
		os.Exit(runEscapes(dir, lint.BuildProgram(pkgs), *writeEscapes))
	}
	if *suggestGuards {
		prog := lint.BuildProgram(pkgs)
		for _, s := range lint.SuggestGuards(prog) {
			guardField := s.Guard
			if i := strings.LastIndex(guardField, "."); i >= 0 {
				guardField = guardField[i+1:]
			}
			fmt.Printf("%s:%d: field %s.%s looks shared (%d locked write(s), %d bare access(es) under %s); consider // hana:guardedby %s\n",
				s.Pos.Filename, s.Pos.Line, s.Owner.Name, s.Field, s.Locked, s.Unlocked, s.Guard, guardField)
		}
		return
	}
	module, err := lint.ModulePath(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanalint:", err)
		os.Exit(2)
	}
	selected := lint.Filter(pkgs, module, flag.Args())
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "hanalint: no packages match", flag.Args())
		os.Exit(2)
	}

	// Analyzers always see the full repo for cross-package facts; only the
	// reporting set is filtered.
	diags := lint.Run(pkgs, lint.Analyzers())
	var out []lint.Diagnostic
	for _, d := range diags {
		if _, ok := selected[pkgOf(pkgs, d.Pos.Filename)]; !ok && len(flag.Args()) > 0 {
			continue
		}
		out = append(out, d)
	}
	if *jsonOut {
		printJSON(out)
	} else {
		for _, d := range out {
			fmt.Println(d)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(os.Stderr, "hanalint: %d finding(s)\n", len(out))
		os.Exit(1)
	}
}

// jsonFinding is the machine-readable diagnostic shape uploaded as a CI
// artifact. Kept flat and stable: downstream tooling diffs runs by it.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(diags []lint.Diagnostic) {
	findings := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, "hanalint:", err)
		os.Exit(2)
	}
}

// printHotSet lists every hot function and the call chain that makes it
// hot, plus any seed-list entries that no longer resolve.
func printHotSet(prog *lint.Program) {
	hot := prog.HotFuncs()
	keys := make([]string, 0, len(hot))
	for k := range hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if hot[k] == "" {
			fmt.Printf("%-55s root\n", k)
		} else {
			fmt.Printf("%-55s via %s\n", k, hot[k])
		}
	}
	for _, r := range prog.UnmatchedHotRoots() {
		fmt.Fprintf(os.Stderr, "hanalint: hot root matches no function: %s\n", r)
	}
}

// runEscapes implements -escapes / -write-escapes and
// returns the exit code. The gate fails on new hot-path escapes AND on
// stale baseline entries: a dead entry means the baseline over-claims, and
// would silently re-admit that escape if it came back.
func runEscapes(dir string, prog *lint.Program, write bool) int {
	sites, err := lint.EscapeSites(dir, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanalint:", err)
		return 2
	}
	baselinePath := filepath.Join(dir, "internal", "lint", "escapes_baseline.txt")
	if write {
		removed, added, err := lint.UpdateEscapeBaseline(baselinePath, sites)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hanalint:", err)
			return 2
		}
		fmt.Printf("hanalint: %s: %d stale entr(ies) dropped, %d new appended, %d hot-path escape site(s)\n",
			baselinePath, len(removed), len(added), len(sites))
		return 0
	}
	baseline, err := lint.ReadEscapeBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hanalint:", err)
		return 2
	}
	newSites, stale := lint.DiffEscapes(sites, baseline)
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "hanalint: stale escape baseline entry (no longer reported): %s\n", s)
	}
	if len(newSites) > 0 {
		for _, s := range newSites {
			fmt.Printf("%s: new heap escape in hot function %s: %s\n", s.File, s.Func, s.Msg)
		}
		fmt.Fprintf(os.Stderr, "hanalint: %d new hot-path escape(s); fix them or update %s via -write-escapes\n",
			len(newSites), baselinePath)
		return 1
	}
	if len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "hanalint: %d stale baseline entr(ies); run -write-escapes to drop them\n", len(stale))
		return 1
	}
	fmt.Printf("hanalint: %d hot-path escape site(s), all baselined\n", len(sites))
	return 0
}

// pkgOf maps a diagnostic filename back to its package's import path.
func pkgOf(pkgs map[string]*lint.Package, filename string) string {
	for path, p := range pkgs {
		for _, f := range p.Files {
			if p.Fset.Position(f.Pos()).Filename == filename {
				return path
			}
		}
	}
	return ""
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:max(0, lastSlash(dir))]
		if parent == "" || parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' || s[i] == '\\' {
			return i
		}
	}
	return -1
}
