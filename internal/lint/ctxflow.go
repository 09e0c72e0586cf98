package lint

import (
	"go/ast"
	"strings"
)

// CtxFlow enforces cancellation plumbing below the public API boundary.
// Since PR 3 every entry point threads a context.Context down to workers,
// remote calls, and retry backoff; a single context-blind hop breaks the
// chain — a canceled federated query keeps sleeping in a startup delay,
// or a 2PC resolve retries against a dead participant long after the
// caller gave up. Per function body, in production (non-test) files of
// hana/internal/... packages:
//
//  1. time.Sleep(...) is always reported: a raw sleep cannot observe
//     cancellation. Use a ctx-aware wait (select on ctx.Done and a
//     time.Timer), whether or not the function has a ctx today.
//
//  2. context.Background() / context.TODO() is reported when the function
//     has a context parameter in scope (the caller's ctx must flow
//     through), and also when it does not — below the API boundary the
//     fix is to accept one. Exempt: the nil-guard shape
//     `if v == nil { v = context.Background() }` and the
//     bench/tpch/chaos harness packages.
//
//  3. with a ctx parameter in scope, a call to a summarized function or
//     method X that has a sibling XCtx/XContext (same package and
//     receiver) and no argument mentioning ctx is reported: the
//     ctx-aware variant exists, use it.
//
// Function literals inherit the enclosing function's ctx scope unless
// they declare their own context parameter.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must thread through blocking, remote, and sleep operations",
	Run:  runCtxFlow,
}

// ctxExemptPkgs are harness packages whose whole purpose is wall-clock
// load generation; a root context is their API boundary.
var ctxExemptPkgs = map[string]bool{
	"hana/internal/bench": true,
	"hana/internal/tpch":  true,
	"hana/internal/chaos": true,
}

func runCtxFlow(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	if ctxExemptPkgs[pass.Pkg.Path] || !strings.Contains(pass.Pkg.Path+"/", "/internal/") {
		return
	}
	for _, file := range pass.Pkg.Files {
		fname := pass.Pkg.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		if file.Name.Name == "main" {
			continue
		}
		imports := importMap(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := pass.Prog.InfoFor(fd)
			if info == nil {
				continue
			}
			cw := &ctxWalker{pass: pass, prog: pass.Prog, info: info, imports: imports}
			cw.checkBody(fd.Body, info.CtxParam)
		}
	}
}

type ctxWalker struct {
	pass    *Pass
	prog    *Program
	info    *FuncInfo
	imports map[string]string
	env     *typeEnv // lazily built for sibling-call resolution
}

// checkBody walks one body with the given ctx identifier in scope (""
// when none).
func (cw *ctxWalker) checkBody(body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			inner := ctxName
			if lit := ctxParamOf(cw.imports, x.Type); lit != "" {
				inner = lit
			}
			cw.checkBody(x.Body, inner)
			return false
		case *ast.IfStmt:
			// Nil-guard exemption: `if v == nil { v = context.Background() }`
			// is defensive defaulting, not a dropped caller ctx.
			if guarded := nilGuardedIdent(x); guarded != "" {
				for _, s := range x.Body.List {
					if isBackgroundAssign(cw.imports, s, guarded) {
						cw.walkStmtSkippingGuard(x, guarded, ctxName)
						return false
					}
				}
			}
		case *ast.CallExpr:
			cw.checkCall(x, ctxName)
		}
		return true
	})
}

// walkStmtSkippingGuard re-walks a nil-guard if statement, skipping only
// the exempted `v = context.Background()` assignments inside it.
func (cw *ctxWalker) walkStmtSkippingGuard(ifst *ast.IfStmt, guarded, ctxName string) {
	for _, s := range ifst.Body.List {
		if isBackgroundAssign(cw.imports, s, guarded) {
			continue
		}
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				cw.checkCall(call, ctxName)
			}
			return true
		})
	}
	if ifst.Else != nil {
		ast.Inspect(ifst.Else, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				cw.checkCall(call, ctxName)
			}
			return true
		})
	}
}

func (cw *ctxWalker) checkCall(call *ast.CallExpr, ctxName string) {
	// Rule 1: raw time.Sleep.
	if cw.isPkgCall(call, "time", "Sleep") {
		cw.pass.Reportf(call.Pos(), "time.Sleep cannot observe cancellation; select on ctx.Done() and a time.Timer instead")
		return
	}
	// Rule 2: context.Background / context.TODO.
	if cw.isPkgCall(call, "context", "Background") || cw.isPkgCall(call, "context", "TODO") {
		if ctxName != "" {
			cw.pass.Reportf(call.Pos(), "context.%s() discards the caller's %s; pass %s through",
				callName(call), ctxName, ctxName)
		} else {
			cw.pass.Reportf(call.Pos(), "context.%s() below the API boundary: accept a ctx parameter and thread it here",
				callName(call))
		}
		return
	}
	// Rule 3: ctx-blind call to a function with a Ctx/Context sibling.
	if ctxName == "" {
		return
	}
	for _, arg := range call.Args {
		if exprMentionsIdent(arg, ctxName) {
			return
		}
	}
	if cw.env == nil {
		cw.env = cw.prog.Env(cw.info)
	}
	ref, ok := cw.env.resolveCall(call)
	if !ok {
		return
	}
	for _, suffix := range []string{"Ctx", "Context"} {
		sib := ref
		sib.Name = ref.Name + suffix
		if cw.prog.Lookup(sib) != nil {
			cw.pass.Reportf(call.Pos(), "%s has a ctx-aware sibling %s but %s is not passed; use %s(%s, …)",
				ref.Short(), sib.Name, ctxName, sib.Name, ctxName)
			return
		}
	}
}

// isPkgCall matches pkgAlias.Name(...) calls against an import path under
// the file's imports.
func (cw *ctxWalker) isPkgCall(call *ast.CallExpr, path, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && cw.imports[id.Name] == path
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// ctxParamOf returns the name of a context.Context parameter of a
// function type, "" if none (or blank).
func ctxParamOf(imports map[string]string, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, fl := range ft.Params.List {
		if !isContextType(imports, fl.Type) {
			continue
		}
		for _, name := range fl.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// nilGuardedIdent matches `if v == nil { ... }` and returns v's name.
func nilGuardedIdent(ifst *ast.IfStmt) string {
	be, ok := ifst.Cond.(*ast.BinaryExpr)
	if !ok || be.Op.String() != "==" {
		return ""
	}
	id, ok := be.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if r, ok := be.Y.(*ast.Ident); !ok || r.Name != "nil" {
		return ""
	}
	return id.Name
}

// isBackgroundAssign matches `v = context.Background()` (or TODO) for the
// guarded identifier.
func isBackgroundAssign(imports map[string]string, s ast.Stmt, v string) bool {
	as, ok := s.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name != v {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return false
	}
	pid, ok := sel.X.(*ast.Ident)
	return ok && imports[pid.Name] == "context"
}
