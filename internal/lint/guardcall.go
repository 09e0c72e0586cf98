package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// guardcall enforces the guarded-boundary discipline end to end:
//
//  1. Every call to a seam in GuardSeams (dist.Transport.Run, the legacy
//     fed adapter methods) must be lexically inside a closure passed to
//     fed.Caller.Call, or inside a function that is only ever reached
//     through such closures (computed as a least fixpoint over the call
//     graph — an unreachable recursion cycle never blesses itself).
//  2. A closure containing a seam call must not be invoked bare: binding
//     attempt := func() { transport.Run(…) } and calling attempt() on some
//     path silently bypasses the breaker/retry/fault machinery even when
//     another path routes it through Caller.Call.
//  3. The fault-site coverage gate: every hierarchical (dotted) site
//     string a production boundary declares — Injector.Check arguments and
//     the site parameter of Caller.Call — must be exercised by at least
//     one fault schedule (Injector.FailN/FailWith/FailFatal/FailAfter/
//     FailProb/Latency call, or a package-level site list in a scheduling
//     package). A declared-but-never-exercised site is chaos coverage
//     that silently rotted.
//
// Seam implementations themselves (methods named like a seam), the
// fed.GuardedCall methods, and test files are exempt from rules 1–2.
var GuardCall = &Analyzer{
	Name: "guardcall",
	Doc:  "remote boundaries must be reached through fed.Caller, and declared fault sites must be exercised",
	Run:  runGuardCall,
}

// seamCallRec is one call to a guarded-boundary method.
type seamCallRec struct {
	Fn   *FuncInfo
	Pos  token.Pos
	Seam string
	Lex  bool // lexically inside a guard-wrapped closure
}

// bareInvokeRec is a direct invocation of a seam-bearing closure.
type bareInvokeRec struct {
	Fn   *FuncInfo
	Pos  token.Pos
	Seam string
}

// declaredSite is one production boundary site pattern ("*" = dynamic
// segment), positioned at its first declaration.
type declaredSite struct {
	Pattern string
	Pos     token.Pos
}

// callSiteEdge is one resolved production call for the guarded-entry
// fixpoint.
type callSiteEdge struct {
	Caller  string
	Guarded bool // the call occurs inside a guard-wrapped closure
}

type guardcallFacts struct {
	seamCalls []seamCallRec
	bareCalls []bareInvokeRec
	declared  map[string]*declaredSite
	exercised []string
	callersOf map[string][]callSiteEdge
	// guardedEntry: every production execution of the function happens
	// inside a guard-wrapped closure.
	guardedEntry map[string]bool
}

func guardcallFactsOf(pr *Program) *guardcallFacts {
	if pr.seams != nil {
		return pr.seams
	}
	gc := &guardcallFacts{
		declared:     map[string]*declaredSite{},
		callersOf:    map[string][]callSiteEdge{},
		guardedEntry: map[string]bool{},
	}
	schedulingFiles := map[*ast.File]bool{}
	for _, info := range pr.FuncsSorted() {
		if info.Decl.Body == nil {
			continue
		}
		collectGuardcall(pr, info, gc, schedulingFiles)
	}
	collectSiteLists(pr, gc, schedulingFiles)
	computeGuardedEntry(gc)
	pr.seams = gc
	return gc
}

// seamExempt: implementation bodies sit below the boundary.
func seamExempt(info *FuncInfo) bool {
	if info.Ref.Pkg == "hana/internal/fed" && info.Ref.Recv == "GuardedCall" {
		return true
	}
	return info.Ref.Recv != "" && seamMethodNames[info.Ref.Name]
}

// collectGuardcall gathers, for one function: which closures are guard-
// wrapped, every seam call with its lexical guard state, bare invocations
// of seam-bearing closures, declared/exercised fault sites, and call-graph
// edges annotated with guard context.
func collectGuardcall(pr *Program, info *FuncInfo, gc *guardcallFacts, schedulingFiles map[*ast.File]bool) {
	env := pr.Env(info)
	body := info.Decl.Body
	ev := newSiteEvaluator(pr, env, body)

	// Pass A: guard wrappers, fault-site declarations and exercises.
	guardedLits := map[*ast.FuncLit]bool{}
	guardedIdents := map[string]bool{}
	litOfIdent := map[string]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
				if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					if fl, ok := st.Rhs[0].(*ast.FuncLit); ok {
						if _, bound := litOfIdent[id.Name]; !bound {
							litOfIdent[id.Name] = fl
						}
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Call" && len(st.Args) == 5 && isGuardCallerType(env.typeOf(sel.X)) {
				switch fn := st.Args[4].(type) {
				case *ast.FuncLit:
					guardedLits[fn] = true
				case *ast.Ident:
					guardedIdents[fn.Name] = true
				}
				if !info.TestFile {
					gc.declareSite(ev.eval(st.Args[3]), st.Args[3].Pos())
				}
				return true
			}
			if env.typeOf(sel.X) == faultsInjectorType && len(st.Args) > 0 {
				switch {
				case sel.Sel.Name == "Check":
					if !info.TestFile {
						gc.declareSite(ev.eval(st.Args[0]), st.Args[0].Pos())
					}
				case scheduleMethods[sel.Sel.Name]:
					schedulingFiles[info.File] = true
					// A dynamic site ("*" root) schedules *something*, but
					// statically covers nothing; the site lists feeding such
					// calls are collected from the file instead.
					if site := ev.eval(st.Args[0]); plausibleSitePattern(site) {
						gc.exercised = append(gc.exercised, site)
					}
				}
			}
		}
		return true
	})
	for name := range guardedIdents {
		if fl := litOfIdent[name]; fl != nil {
			guardedLits[fl] = true
		}
	}

	if info.TestFile {
		return
	}
	exempt := seamExempt(info)

	// Pass B: walk with a guarded-context flag. Seam calls, bare closure
	// invocations, and call-graph edges all depend on whether the current
	// lexical position is inside a guard-wrapped closure.
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				if m == n {
					return true // the literal we were asked to walk
				}
				walk(x.Body, guarded || guardedLits[x])
				return false
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if s := seamFor(env.typeOf(sel.X), sel.Sel.Name); s != nil && !exempt {
						gc.seamCalls = append(gc.seamCalls, seamCallRec{
							Fn: info, Pos: x.Pos(), Seam: s.short(), Lex: guarded,
						})
					}
				}
				if id, ok := x.Fun.(*ast.Ident); ok && !guarded && !exempt {
					if fl := litOfIdent[id.Name]; fl != nil && litHasSeamCall(env, fl) {
						gc.bareCalls = append(gc.bareCalls, bareInvokeRec{
							Fn: info, Pos: x.Pos(), Seam: firstSeamIn(env, fl),
						})
					}
				}
				if ref, ok := env.resolveCall(x); ok {
					gc.callersOf[ref.key()] = append(gc.callersOf[ref.key()],
						callSiteEdge{Caller: info.Ref.key(), Guarded: guarded})
				}
			}
			return true
		})
	}
	walk(body, false)
}

// litHasSeamCall reports whether a closure's body contains a seam call.
func litHasSeamCall(env *typeEnv, fl *ast.FuncLit) bool {
	return firstSeamIn(env, fl) != ""
}

func firstSeamIn(env *typeEnv, fl *ast.FuncLit) string {
	found := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if s := seamFor(env.typeOf(sel.X), sel.Sel.Name); s != nil {
					found = s.short()
					return false
				}
			}
		}
		return true
	})
	return found
}

// declareSite records a production boundary site. Only hierarchical
// (dotted) patterns with a literal root participate in the coverage gate:
// single-token sites are unit-test probes, and a fully dynamic pattern
// cannot be matched against schedules.
func (gc *guardcallFacts) declareSite(pattern string, pos token.Pos) {
	segs := strings.Split(pattern, ".")
	if len(segs) < 2 || strings.Contains(segs[0], "*") || segs[0] == "" {
		return
	}
	if cur, ok := gc.declared[pattern]; !ok || pos < cur.Pos {
		gc.declared[pattern] = &declaredSite{Pattern: pattern, Pos: pos}
	}
}

// collectSiteLists adds package-level []string literals from files that
// contain scheduling calls to the exercised set — the chaos harness's site
// tables (e.g. chaos.CrashSites) feed schedules through variables, not
// literals, and live beside the loop that arms them.
func collectSiteLists(pr *Program, gc *guardcallFacts, schedulingFiles map[*ast.File]bool) {
	for _, path := range sortedKeys(pr.Pkgs) {
		for _, file := range pr.Pkgs[path].Files {
			if !schedulingFiles[file] {
				continue
			}
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						cl, ok := v.(*ast.CompositeLit)
						if !ok {
							continue
						}
						for _, el := range cl.Elts {
							if lit, ok := el.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								if s, err := strconv.Unquote(lit.Value); err == nil && plausibleSitePattern(s) {
									gc.exercised = append(gc.exercised, s)
								}
							}
						}
					}
				}
			}
		}
	}
}

// computeGuardedEntry is the least fixpoint: a function's every execution
// is guarded when it has at least one production call site and every one
// of them is inside a guard-wrapped closure or inside a caller that is
// itself always-guarded. Starting from all-false, the set only grows, so
// recursion cycles with no guarded entry stay unguarded.
func computeGuardedEntry(gc *guardcallFacts) {
	keys := sortedKeys(gc.callersOf)
	for changed := true; changed; {
		changed = false
		for _, f := range keys {
			if gc.guardedEntry[f] {
				continue
			}
			sites := gc.callersOf[f]
			if len(sites) == 0 {
				continue
			}
			all := true
			for _, s := range sites {
				if !s.Guarded && !gc.guardedEntry[s.Caller] {
					all = false
					break
				}
			}
			if all {
				gc.guardedEntry[f] = true
				changed = true
			}
		}
	}
}

// siteCovered reports whether an exercised pattern matches the declared
// one under the injector's hierarchical semantics: a schedule at "a.b"
// fires for any site below it, and a schedule at a more specific pattern
// exercises the declared family when every common segment is compatible.
func siteCovered(declared string, exercised []string) bool {
	d := strings.Split(declared, ".")
	for _, e := range exercised {
		es := strings.Split(e, ".")
		if len(es) > len(d) {
			continue // more specific than the declared site: never fires for it
		}
		ok := true
		for i := range es {
			if !segMatch(es[i], d[i]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func segMatch(a, b string) bool {
	return a == b || strings.Contains(a, "*") || strings.Contains(b, "*")
}

// plausibleSitePattern keeps the exercised set to site-shaped strings:
// short whitespace-free tokens whose root segment is literal. A string
// that fails this (a SQL statement in a query list, a fully dynamic
// pattern) cannot meaningfully cover a declared site.
func plausibleSitePattern(s string) bool {
	if s == "" || len(s) > 64 || strings.ContainsAny(s, " \t\n\r") {
		return false
	}
	return !strings.Contains(strings.Split(s, ".")[0], "*")
}

func runGuardCall(pass *Pass) {
	gc := guardcallFactsOf(pass.Prog)
	own := map[string]bool{}
	for _, f := range pass.Pkg.Files {
		own[pass.Pkg.Fset.Position(f.Pos()).Filename] = true
	}
	for _, sc := range gc.seamCalls {
		if sc.Lex || gc.guardedEntry[sc.Fn.Ref.key()] {
			continue
		}
		if !own[pass.Pkg.Fset.Position(sc.Pos).Filename] {
			continue
		}
		pass.Reportf(sc.Pos,
			"call to %s reaches a remote boundary outside fed.Caller.Call: wrap it in a guarded closure or reach %s only through guarded paths",
			sc.Seam, sc.Fn.Ref.Short())
	}
	for _, bc := range gc.bareCalls {
		if !own[pass.Pkg.Fset.Position(bc.Pos).Filename] {
			continue
		}
		pass.Reportf(bc.Pos,
			"closure containing a call to %s is invoked directly; route it through fed.Caller.Call so the breaker, retries and fault sites apply",
			bc.Seam)
	}
	patterns := sortedKeys(gc.declared)
	for _, p := range patterns {
		ds := gc.declared[p]
		if siteCovered(p, gc.exercised) {
			continue
		}
		if !own[pass.Pkg.Fset.Position(ds.Pos).Filename] {
			continue
		}
		pass.Reportf(ds.Pos,
			"fault site %q is declared at this boundary but never exercised by any fault schedule; add chaos coverage or remove the site",
			p)
	}
}

// ---- site-pattern evaluation ----

// siteEvaluator renders a site-string expression to a match pattern,
// substituting "*" for anything dynamic. It follows local := bindings,
// fmt.Sprintf formats, and single-return site-builder callees (e.g.
// dist.Worker.site) up to a small depth.
type siteEvaluator struct {
	pr     *Program
	env    *typeEnv
	binds  map[string]string   // callee param → evaluated argument
	locals map[string]ast.Expr // first := binding per local
	depth  int
}

func newSiteEvaluator(pr *Program, env *typeEnv, body *ast.BlockStmt) *siteEvaluator {
	ev := &siteEvaluator{pr: pr, env: env, locals: map[string]ast.Expr{}}
	if body != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || st.Tok != token.DEFINE || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				return true
			}
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if _, bound := ev.locals[id.Name]; !bound {
					ev.locals[id.Name] = st.Rhs[0]
				}
			}
			return true
		})
	}
	return ev
}

func (ev *siteEvaluator) eval(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return ev.eval(x.X)
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			if s, err := strconv.Unquote(x.Value); err == nil {
				return s
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			return ev.eval(x.X) + ev.eval(x.Y)
		}
	case *ast.Ident:
		if v, ok := ev.binds[x.Name]; ok {
			return v
		}
		if bound, ok := ev.locals[x.Name]; ok && ev.depth < 4 {
			// Remove while evaluating so self-referential rebinding
			// (s := s + "x" shapes) cannot recurse.
			delete(ev.locals, x.Name)
			v := ev.eval(bound)
			ev.locals[x.Name] = bound
			return v
		}
	case *ast.CallExpr:
		return ev.evalCall(x)
	}
	return "*"
}

func (ev *siteEvaluator) evalCall(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(call.Args) > 0 {
		if id, ok := sel.X.(*ast.Ident); ok && ev.env.imports[id.Name] == "fmt" {
			if format := ev.eval(call.Args[0]); format != "*" {
				return ev.substVerbs(format, call.Args[1:])
			}
		}
	}
	if ev.depth >= 3 {
		return "*"
	}
	ref, ok := ev.env.resolveCall(call)
	if !ok {
		return "*"
	}
	callee := ev.pr.Lookup(ref)
	if callee == nil || callee.Decl.Body == nil || len(callee.Decl.Body.List) != 1 {
		return "*"
	}
	ret, ok := callee.Decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return "*"
	}
	inner := &siteEvaluator{
		pr: ev.pr, env: ev.pr.Env(callee),
		binds:  map[string]string{},
		locals: map[string]ast.Expr{},
		depth:  ev.depth + 1,
	}
	for i, arg := range call.Args {
		if name := paramIndexName(callee.Decl, i); name != "" {
			inner.binds[name] = ev.eval(arg)
		}
	}
	return inner.eval(ret.Results[0])
}

// substVerbs replaces each %-verb in a Sprintf format with the evaluated
// corresponding argument ("*" when dynamic).
func (ev *siteEvaluator) substVerbs(format string, args []ast.Expr) string {
	var b strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		for i < len(format) && strings.ContainsRune("#+-. 0123456789[]", rune(format[i])) {
			i++
		}
		val := "*"
		if ai < len(args) {
			val = ev.eval(args[ai])
			ai++
		}
		b.WriteString(val)
	}
	return b.String()
}
