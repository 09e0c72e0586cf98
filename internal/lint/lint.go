// Package lint is hanalint's analysis framework: a stdlib-only (go/ast,
// go/parser, go/token) static-analysis driver with a suite of analyzers
// tuned to this codebase's concurrency and fault-boundary invariants — lock
// discipline and lock order around 2PC commit and ESP window flushing,
// guarded fields, guarded calls across remote and extended-storage
// boundaries, error propagation on storage paths, context flow, and resource
// release.
//
// Deliberate violations are suppressed in source with a directive on the
// same line or the line directly above the diagnostic:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive without a reason, or naming no analyzer of the suite, is
// itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed package under analysis.
type Package struct {
	Path  string // import path, e.g. hana/internal/txn
	Fset  *token.FileSet
	Files []*ast.File
}

// Pass is one (analyzer, package) run. All carries every package of the
// repo so analyzers can consult cross-package facts (e.g. which exported
// functions of a monitored package return error); Prog carries the
// interprocedural summaries (call graph, lock sets, parameter cleanup)
// built once per Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	All      map[string]*Package
	Prog     *Program
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full hanalint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockSafe,
		ErrDrop,
		LockOrder,
		CtxFlow,
		ResLeak,
		GuardedBy,
		GuardCall,
	}
}

// Run executes the analyzers over every package and returns the surviving
// diagnostics sorted by position. //lint:ignore directives with a matching
// analyzer name on the diagnostic's line or the line above suppress it;
// malformed, stale and unknown-analyzer directives are reported under the
// "lint" pseudo-analyzer.
func Run(pkgs map[string]*Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(BuildProgram(pkgs), analyzers)
}

// RunProgram is Run over an already built Program, for callers that also
// need the Program itself or run more than once over the same packages.
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	pkgs := prog.Pkgs
	var raw []Diagnostic
	for _, path := range sortedKeys(pkgs) {
		pkg := pkgs[path]
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, All: pkgs, Prog: prog, diags: &raw}
			a.Run(pass)
		}
	}

	dirs, dirDiags := collectDirectives(pkgs)
	var out []Diagnostic
	out = append(out, dirDiags...)
	for _, d := range raw {
		if dirs.suppresses(d) {
			continue
		}
		out = append(out, d)
	}
	out = append(out, dirs.stale(analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// directive is one parsed //lint:ignore comment. used tracks whether it
// suppressed at least one finding this run, so rotted suppressions can be
// reported.
type directive struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool
}

// directiveSet maps file → line → directives declared on that line.
type directiveSet map[string]map[int][]*directive

// suppresses reports whether a directive on the diagnostic's line or the
// line directly above names its analyzer, marking every matching directive
// as used.
func (s directiveSet) suppresses(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, ln := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range lines[ln] {
			if dir.analyzer == d.Analyzer || dir.analyzer == "*" {
				dir.used = true
				hit = true
			}
		}
	}
	return hit
}

// stale reports directives that suppressed nothing: the finding they once
// silenced is gone, so the suppression (and its rationale) is rot. Only
// directives naming an analyzer in the current run set are judged — a
// partial run cannot know whether an un-run analyzer would have fired —
// and wildcard ("*") directives are never judged for the same reason. A
// directive naming no analyzer at all (a typo, or one left behind by a
// deleted analyzer) can never suppress anything and is always reported.
func (s directiveSet) stale(analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := map[string]bool{"*": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, lines := range s {
		for _, dirs := range lines {
			for _, dir := range dirs {
				var msg string
				switch {
				case !known[dir.analyzer]:
					msg = fmt.Sprintf("unknown analyzer %q in //lint:ignore directive (see hanalint -list)", dir.analyzer)
				case dir.used || dir.analyzer == "*" || !ran[dir.analyzer]:
					continue
				default:
					msg = fmt.Sprintf("stale //lint:ignore %s directive: no %s finding here to suppress",
						dir.analyzer, dir.analyzer)
				}
				out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "lint", Message: msg})
			}
		}
	}
	return out
}

const directivePrefix = "//lint:ignore"

func collectDirectives(pkgs map[string]*Package) (directiveSet, []Diagnostic) {
	set := directiveSet{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Require the prefix to be followed by a space or
					// end-of-comment so //lint:ignored is not mistaken
					// for a (malformed) directive.
					if c.Text != directivePrefix &&
						!strings.HasPrefix(c.Text, directivePrefix+" ") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := strings.TrimSpace(strings.TrimPrefix(c.Text, directivePrefix))
					fields := strings.SplitN(rest, " ", 2)
					if len(fields) < 2 || strings.TrimSpace(fields[1]) == "" {
						diags = append(diags, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					if set[pos.Filename] == nil {
						set[pos.Filename] = map[int][]*directive{}
					}
					set[pos.Filename][pos.Line] = append(set[pos.Filename][pos.Line],
						&directive{analyzer: fields[0], reason: strings.TrimSpace(fields[1]), pos: pos})
				}
			}
		}
	}
	return set, diags
}

// ---- shared AST helpers used by several analyzers ----

// exprKey renders a (possibly chained) selector/ident expression as a
// stable string key, e.g. "w.mu" or "s.source.mu". Unsupported shapes
// return "".
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	}
	return ""
}

// sortedKeys returns a map's keys in order (nil for an empty map): every
// listing the analyzers produce walks its maps this way, so no output
// depends on map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// importMap maps a file's local import names to import paths. Unnamed
// imports use the path's last element as the local name.
func importMap(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if im.Name != nil {
			if im.Name.Name == "_" || im.Name.Name == "." {
				continue
			}
			name = im.Name.Name
		}
		out[name] = path
	}
	return out
}

// returnsError reports whether a function type's last result is the
// builtin error type.
func returnsError(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) == 0 {
		return false
	}
	last := ft.Results.List[len(ft.Results.List)-1].Type
	id, ok := last.(*ast.Ident)
	return ok && id.Name == "error"
}

// errorFuncs collects the names of package-level functions and methods in
// pkg whose last result is error. Interface methods count too: a dropped
// error from a Participant.Abort call is as real as from a concrete method.
func errorFuncs(pkg *Package) map[string]bool {
	out := map[string]bool{}
	if pkg == nil {
		return out
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if returnsError(d.Type) {
					out[d.Name.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range d.Methods.List {
					ft, ok := m.Type.(*ast.FuncType)
					if !ok || !returnsError(ft) {
						continue
					}
					for _, name := range m.Names {
						out[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// importsSync reports whether any file of pkg imports "sync" — a proxy for
// "this package takes locks", used by locksafe for the cross-package calls
// the interprocedural summaries do not resolve.
func importsSync(pkg *Package) bool {
	if pkg == nil {
		return false
	}
	for _, f := range pkg.Files {
		for _, im := range f.Imports {
			if strings.Trim(im.Path.Value, `"`) == "sync" {
				return true
			}
		}
	}
	return false
}

// funcFields collects struct field names declared with a func type
// anywhere in pkg (e.g. esp.Pattern.action). Calling such a field invokes
// arbitrary user code.
func funcFields(pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				if _, isFunc := fl.Type.(*ast.FuncType); !isFunc {
					continue
				}
				for _, name := range fl.Names {
					out[name.Name] = true
				}
			}
			return true
		})
	}
	return out
}
