package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// This file is hanalint's interprocedural layer: a call-graph builder over
// the loaded packages plus one summary per function. The whole analysis
// stays stdlib-syntactic (no go/types); types are resolved best-effort
// from declarations — receivers, parameters, struct fields, constructor
// results, composite literals — which covers this repository's idioms. A
// call or lock the resolver cannot type simply contributes no facts:
// every consumer is designed to under-report rather than guess.
//
// The summaries feed five analyzers:
//
//   - lockorder consumes Acquires / DirectEdges / HeldCalls plus the
//     transitive-lock fixpoint to derive the global lock-acquisition graph;
//   - locksafe consumes the transitive locks to tell whether a
//     cross-package callee can take a lock;
//   - guardedby and guardcall consume the typing environment and call
//     resolution for their own whole-program fixpoints;
//   - ctxflow consumes CtxParam and call resolution to find context-blind
//     calls and sibling Ctx variants;
//   - resleak consumes ClosesParams / ConsumesParams so cleanup performed
//     by a callee (or ownership handed to one) counts across call
//     boundaries.
//
// The lock facts come from the held-lock walk (heldlocks.go) that locksafe
// and guardedby also run.

// TypeRef names a declared (struct) type: import path + type name.
type TypeRef struct {
	Pkg  string
	Name string
}

func (t TypeRef) zero() bool { return t.Name == "" }

// shortPkg is the last import-path element, used in lock-class keys and
// diagnostics ("engine.Engine.mu", not "hana/internal/engine.Engine.mu").
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// FuncRef identifies a function or method.
type FuncRef struct {
	Pkg  string // import path
	Recv string // receiver type name, "" for package-level functions
	Name string
}

func (r FuncRef) key() string {
	if r.Recv != "" {
		return r.Pkg + "." + r.Recv + "." + r.Name
	}
	return r.Pkg + "." + r.Name
}

// Short renders the ref for diagnostics: pkg.Type.Method or pkg.Func with
// the short package name.
func (r FuncRef) Short() string {
	if r.Recv != "" {
		return shortPkg(r.Pkg) + "." + r.Recv + "." + r.Name
	}
	return shortPkg(r.Pkg) + "." + r.Name
}

// LockEdgeFact is one "acquired To while holding From" observation inside
// a single function body.
type LockEdgeFact struct {
	From string
	To   string
	Pos  token.Pos
}

// HeldCall is a resolved call made while at least one lock was held.
type HeldCall struct {
	Callee FuncRef
	Held   []string // normalized lock keys held at the call, sorted
	Pos    token.Pos
}

// FuncInfo is the per-function summary.
type FuncInfo struct {
	Ref  FuncRef
	Decl *ast.FuncDecl
	Pkg  *Package
	File *ast.File

	TestFile bool

	// CtxParam is the name of the context.Context parameter ("" when the
	// function does not receive one, or receives it as _).
	CtxParam string

	// ResultType is the function's first result when it is a named struct
	// type of a loaded package — enough to type constructor calls like
	// NewBreaker(...) or accessor chains like e.health.Breaker(...).
	ResultType TypeRef

	// Acquires maps each lock class directly acquired in the body to the
	// first acquisition position. Keys are normalized ("pkg.Type.field" for
	// struct-field mutexes, "pkg.var" for package-level ones); locks on
	// untypeable locals are not summarized.
	Acquires map[string]token.Pos

	// DirectEdges are same-body lock orderings: To acquired while From held.
	DirectEdges []LockEdgeFact

	// HeldCalls are resolved calls made while holding at least one lock.
	HeldCalls []HeldCall

	// ClosesParams / ConsumesParams record, per parameter name, whether the
	// body releases the parameter (calls a cleanup method on it, possibly
	// through another summarized callee) or takes ownership of it (returns
	// it or stores it into a longer-lived structure).
	ClosesParams   map[string]bool
	ConsumesParams map[string]bool

	paramTypes map[string]TypeRef
	recvName   string
	recvType   TypeRef
}

// Program is the cross-package index all interprocedural analyzers share.
type Program struct {
	Pkgs map[string]*Package

	funcs    map[string]*FuncInfo        // FuncRef.key() → summary
	byDecl   map[*ast.FuncDecl]*FuncInfo // reverse lookup for analyzers
	methods  map[TypeRef]map[string]*FuncInfo
	pkgFuncs map[string]map[string]*FuncInfo // import path → name → summary
	fields   map[TypeRef]map[string]TypeRef  // struct field → named field type
	pkgVars  map[string]map[string]bool      // import path → package-level var names

	// transLocks is the fixpoint: every lock class a function can acquire,
	// directly or through resolved callees, with a human-readable call
	// chain for diagnostics.
	transLocks map[string]map[string]string

	lockGraph []LockEdge        // cached by LockGraph
	hotFuncs  map[string]string // cached by HotFuncs: key → chain from root

	guards *guardFacts     // cached by guardFactsOf (guardedby + SuggestGuards)
	seams  *guardcallFacts // cached by guardcallFactsOf (guardcall + fault-site gate)
}

// FuncsSorted returns every summary in deterministic (key) order.
func (pr *Program) FuncsSorted() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(pr.funcs))
	for _, k := range sortedKeys(pr.funcs) {
		out = append(out, pr.funcs[k])
	}
	return out
}

// InfoFor returns the summary for a declaration, or nil.
func (pr *Program) InfoFor(decl *ast.FuncDecl) *FuncInfo { return pr.byDecl[decl] }

// Lookup returns a summary by reference.
func (pr *Program) Lookup(ref FuncRef) *FuncInfo { return pr.funcs[ref.key()] }

// TransitiveLocks returns every lock class fn can acquire (directly or via
// resolved callees) mapped to the call chain that reaches it ("" = direct).
func (pr *Program) TransitiveLocks(ref FuncRef) map[string]string {
	return pr.transLocks[ref.key()]
}

// BuildProgram indexes declarations and computes per-function summaries
// plus the transitive-lock fixpoint.
func BuildProgram(pkgs map[string]*Package) *Program {
	pr := &Program{
		Pkgs:       pkgs,
		funcs:      map[string]*FuncInfo{},
		byDecl:     map[*ast.FuncDecl]*FuncInfo{},
		methods:    map[TypeRef]map[string]*FuncInfo{},
		pkgFuncs:   map[string]map[string]*FuncInfo{},
		fields:     map[TypeRef]map[string]TypeRef{},
		pkgVars:    map[string]map[string]bool{},
		transLocks: map[string]map[string]string{},
	}
	// Phase 1: declarations — struct fields, package vars, func/method index.
	for _, path := range sortedKeys(pkgs) {
		pr.indexPackage(pkgs[path])
	}
	// Phase 2: per-function body facts.
	for _, info := range pr.FuncsSorted() {
		pr.summarizeBody(info)
	}
	// Phase 3: fixpoints.
	pr.computeTransitiveLocks()
	pr.propagateClosesParams()
	return pr
}

func (pr *Program) indexPackage(pkg *Package) {
	for _, file := range pkg.Files {
		imports := importMap(file)
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						tref := TypeRef{Pkg: pkg.Path, Name: sp.Name.Name}
						fm := pr.fields[tref]
						if fm == nil {
							fm = map[string]TypeRef{}
							pr.fields[tref] = fm
						}
						for _, fl := range st.Fields.List {
							ft := pr.namedType(pkg, imports, fl.Type)
							if ft.zero() {
								continue
							}
							for _, name := range fl.Names {
								fm[name.Name] = ft
							}
						}
					case *ast.ValueSpec:
						if d.Tok != token.VAR {
							continue
						}
						vm := pr.pkgVars[pkg.Path]
						if vm == nil {
							vm = map[string]bool{}
							pr.pkgVars[pkg.Path] = vm
						}
						for _, name := range sp.Names {
							vm[name.Name] = true
						}
					}
				}
			case *ast.FuncDecl:
				pr.indexFunc(pkg, file, imports, d)
			}
		}
	}
}

func (pr *Program) indexFunc(pkg *Package, file *ast.File, imports map[string]string, fd *ast.FuncDecl) {
	info := &FuncInfo{
		Decl:           fd,
		Pkg:            pkg,
		File:           file,
		Acquires:       map[string]token.Pos{},
		ClosesParams:   map[string]bool{},
		ConsumesParams: map[string]bool{},
		paramTypes:     map[string]TypeRef{},
	}
	info.TestFile = strings.HasSuffix(pkg.Fset.Position(fd.Pos()).Filename, "_test.go")
	ref := FuncRef{Pkg: pkg.Path, Name: fd.Name.Name}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		rt := pr.namedType(pkg, imports, fd.Recv.List[0].Type)
		if !rt.zero() {
			ref.Recv = rt.Name
			info.recvType = rt
			if len(fd.Recv.List[0].Names) == 1 && fd.Recv.List[0].Names[0].Name != "_" {
				info.recvName = fd.Recv.List[0].Names[0].Name
			}
		}
	}
	info.Ref = ref
	if fd.Type.Params != nil {
		for _, fl := range fd.Type.Params.List {
			pt := pr.namedType(pkg, imports, fl.Type)
			isCtx := isContextType(imports, fl.Type)
			for _, name := range fl.Names {
				if name.Name == "_" {
					continue
				}
				if isCtx && info.CtxParam == "" {
					info.CtxParam = name.Name
				}
				if !pt.zero() {
					info.paramTypes[name.Name] = pt
				}
			}
		}
	}
	if fd.Type.Results != nil && len(fd.Type.Results.List) > 0 {
		info.ResultType = pr.namedType(pkg, imports, fd.Type.Results.List[0].Type)
	}

	pr.funcs[ref.key()] = info
	pr.byDecl[fd] = info
	if ref.Recv != "" {
		tref := TypeRef{Pkg: ref.Pkg, Name: ref.Recv}
		mm := pr.methods[tref]
		if mm == nil {
			mm = map[string]*FuncInfo{}
			pr.methods[tref] = mm
		}
		mm[ref.Name] = info
	} else {
		fm := pr.pkgFuncs[ref.Pkg]
		if fm == nil {
			fm = map[string]*FuncInfo{}
			pr.pkgFuncs[ref.Pkg] = fm
		}
		fm[ref.Name] = info
	}
}

// namedType resolves a type expression to a named type of a loaded
// package: T, *T, pkg.T, *pkg.T (pointers and parens stripped).
func (pr *Program) namedType(pkg *Package, imports map[string]string, e ast.Expr) TypeRef {
	switch t := e.(type) {
	case *ast.StarExpr:
		return pr.namedType(pkg, imports, t.X)
	case *ast.ParenExpr:
		return pr.namedType(pkg, imports, t.X)
	case *ast.Ident:
		return TypeRef{Pkg: pkg.Path, Name: t.Name}
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			if path, ok := imports[id.Name]; ok {
				return TypeRef{Pkg: path, Name: t.Sel.Name}
			}
		}
	}
	return TypeRef{}
}

// isContextType matches context.Context under the file's imports.
func isContextType(imports map[string]string, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && imports[id.Name] == "context"
}

// ---- per-function type environment ----

// typeEnv types expressions inside one function body.
type typeEnv struct {
	prog    *Program
	pkg     *Package
	imports map[string]string
	vars    map[string]TypeRef
}

// Env builds the typing environment for a summarized function: receiver,
// parameters, and simple local bindings (constructor calls, composite
// literals, var declarations).
func (pr *Program) Env(info *FuncInfo) *typeEnv {
	env := &typeEnv{
		prog:    pr,
		pkg:     info.Pkg,
		imports: importMap(info.File),
		vars:    map[string]TypeRef{},
	}
	for name, t := range info.paramTypes {
		env.vars[name] = t
	}
	if info.recvName != "" {
		env.vars[info.recvName] = info.recvType
	}
	if info.Decl.Body != nil {
		env.collectLocals(info.Decl.Body)
	}
	return env
}

// collectLocals records x := <typeable expr> and var x T bindings. Later
// bindings win; shadowing across blocks is approximated by source order,
// which matches this repo's naming discipline.
func (env *typeEnv) collectLocals(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			t := env.typeOf(st.Rhs[0])
			if t.zero() || len(st.Lhs) == 0 {
				return true
			}
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				if _, exists := env.vars[id.Name]; !exists {
					env.vars[id.Name] = t
				}
			}
		case *ast.ValueSpec:
			if st.Type == nil {
				return true
			}
			t := env.prog.namedType(env.pkg, env.imports, st.Type)
			if t.zero() {
				return true
			}
			for _, name := range st.Names {
				if name.Name == "_" {
					continue
				}
				if _, exists := env.vars[name.Name]; !exists {
					env.vars[name.Name] = t
				}
			}
		}
		return true
	})
}

// typeOf resolves an expression to a named type of a loaded package,
// best-effort.
func (env *typeEnv) typeOf(e ast.Expr) TypeRef {
	switch x := e.(type) {
	case *ast.Ident:
		return env.vars[x.Name]
	case *ast.ParenExpr:
		return env.typeOf(x.X)
	case *ast.StarExpr:
		return env.typeOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return env.typeOf(x.X)
		}
	case *ast.CompositeLit:
		if x.Type != nil {
			return env.prog.namedType(env.pkg, env.imports, x.Type)
		}
	case *ast.SelectorExpr:
		base := env.typeOf(x.X)
		if base.zero() {
			return TypeRef{}
		}
		return env.prog.fields[base][x.Sel.Name]
	case *ast.CallExpr:
		if ref, ok := env.resolveCall(x); ok {
			if info := env.prog.funcs[ref.key()]; info != nil {
				return info.ResultType
			}
		}
	}
	return TypeRef{}
}

// resolveCall maps a call expression to the summarized function it
// invokes. ok is false for unresolved targets (stdlib, func values,
// interface methods on untypeable receivers).
func (env *typeEnv) resolveCall(call *ast.CallExpr) (FuncRef, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if info := env.prog.pkgFuncs[env.pkg.Path][fun.Name]; info != nil {
			return info.Ref, true
		}
	case *ast.ParenExpr:
		inner := *call
		inner.Fun = fun.X
		return env.resolveCall(&inner)
	case *ast.SelectorExpr:
		// pkgalias.Func(...) — only when the alias is not shadowed by a var.
		if id, ok := fun.X.(*ast.Ident); ok {
			if _, shadowed := env.vars[id.Name]; !shadowed {
				if path, imported := env.imports[id.Name]; imported {
					if info := env.prog.pkgFuncs[path][fun.Sel.Name]; info != nil {
						return info.Ref, true
					}
					return FuncRef{}, false
				}
			}
		}
		recv := env.typeOf(fun.X)
		if recv.zero() {
			return FuncRef{}, false
		}
		if info := env.prog.methods[recv][fun.Sel.Name]; info != nil {
			return info.Ref, true
		}
	}
	return FuncRef{}, false
}

// lockClass normalizes the receiver of a Lock/Unlock call ("x.mu" in
// x.mu.Lock()) to a stable class key: "pkg.Type.mu" when x is typeable,
// "pkg.mu" for a package-level mutex, "" when the lock cannot be
// attributed to a shared structure (locals, untypeable chains).
func (env *typeEnv) lockClass(muExpr ast.Expr) string {
	switch x := muExpr.(type) {
	case *ast.ParenExpr:
		return env.lockClass(x.X)
	case *ast.Ident:
		if env.prog.pkgVars[env.pkg.Path][x.Name] {
			return shortPkg(env.pkg.Path) + "." + x.Name
		}
	case *ast.SelectorExpr:
		owner := env.typeOf(x.X)
		if owner.zero() {
			return ""
		}
		return shortPkg(owner.Pkg) + "." + owner.Name + "." + x.Sel.Name
	}
	return ""
}

// ---- body summarization ----

func (pr *Program) summarizeBody(info *FuncInfo) {
	if info.Decl.Body == nil {
		return
	}
	env := pr.Env(info)
	walkHeld(env, lockFacts{info: info}, nil, info.Decl.Body)
	pr.summarizeParams(info, env)
}

// lockFacts records a body's lock facts into its summary along the
// held-lock walk: acquisitions, same-body orderings and held calls.
type lockFacts struct {
	lockHooks
	info *FuncInfo
}

func (f lockFacts) lock(w *lockWalk, call *ast.CallExpr, _ string, l heldLock) {
	if l.class == "" {
		return
	}
	for _, from := range sortedKeys(w.classes()) {
		f.info.DirectEdges = append(f.info.DirectEdges, LockEdgeFact{From: from, To: l.class, Pos: call.Pos()})
	}
	if _, ok := f.info.Acquires[l.class]; !ok {
		f.info.Acquires[l.class] = call.Pos()
	}
}

func (f lockFacts) call(w *lockWalk, call *ast.CallExpr) {
	held := sortedKeys(w.classes())
	if len(held) == 0 {
		return
	}
	if ref, ok := w.env.resolveCall(call); ok {
		f.info.HeldCalls = append(f.info.HeldCalls, HeldCall{Callee: ref, Held: held, Pos: call.Pos()})
	}
}

// closure starts a function literal from an empty held set: the literal
// does not, in general, run at the point it is written, so its
// acquisitions do not order against the enclosing body's held locks — but
// orderings local to the closure are real.
func (f lockFacts) closure(w *lockWalk, fl *ast.FuncLit, _, _ bool) { w.sub(fl, f, false) }

// cleanupMethods are the method names that release a resource; used both
// for ClosesParams summaries and by resleak's kind table.
var cleanupMethods = map[string]bool{
	"Close": true, "End": true, "Release": true, "Stop": true,
	"Success": true, "Failure": true,
}

// summarizeParams records which parameters the body closes (calls a
// cleanup method on, directly) and which it consumes (returns or stores
// into a longer-lived structure). Cross-function close chains are
// propagated afterwards by propagateClosesParams.
func (pr *Program) summarizeParams(info *FuncInfo, env *typeEnv) {
	if info.Decl.Body == nil || len(info.paramTypes) == 0 && info.Decl.Type.Params == nil {
		return
	}
	params := map[string]bool{}
	if info.Decl.Type.Params != nil {
		for _, fl := range info.Decl.Type.Params.List {
			for _, name := range fl.Names {
				if name.Name != "_" {
					params[name.Name] = true
				}
			}
		}
	}
	if len(params) == 0 {
		return
	}
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && cleanupMethods[sel.Sel.Name] {
				if id, ok := sel.X.(*ast.Ident); ok && params[id.Name] {
					info.ClosesParams[id.Name] = true
				}
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				for name := range params {
					if exprMentionsIdent(res, name) {
						info.ConsumesParams[name] = true
					}
				}
			}
		case *ast.AssignStmt:
			// Storing a parameter into a field (or through a selector chain)
			// hands ownership to a longer-lived structure.
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				if _, isSel := x.Lhs[i].(*ast.SelectorExpr); !isSel {
					continue
				}
				for name := range params {
					if exprMentionsIdent(rhs, name) {
						info.ConsumesParams[name] = true
					}
				}
			}
		}
		return true
	})
}

// exprMentionsIdent reports whether the expression subtree contains the
// identifier.
func exprMentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// paramIndexName maps a callee's parameter position to its name ("" when
// out of range or unnamed). Variadic trailing parameters absorb all
// remaining positions.
func paramIndexName(fd *ast.FuncDecl, idx int) string {
	if fd.Type.Params == nil {
		return ""
	}
	i := 0
	for _, fl := range fd.Type.Params.List {
		n := len(fl.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			_, variadic := fl.Type.(*ast.Ellipsis)
			if i == idx || (variadic && idx >= i) {
				if len(fl.Names) == 0 {
					return ""
				}
				k := j
				if k >= len(fl.Names) {
					k = len(fl.Names) - 1
				}
				return fl.Names[k].Name
			}
			i++
		}
	}
	return ""
}

// computeTransitiveLocks folds callee lock sets into callers until the
// fixpoint: locks(f) = direct(f) ∪ ⋃ locks(resolved callee). Closure
// bodies contribute their direct acquisitions through Acquires, which the
// held-lock walk fills for closures too (a lock a closure takes is a lock running
// f may take).
//
// The chain recorded for an indirect lock steps, at every function, into
// the callee with the smallest short name among those that can take the
// lock — the lexicographically smallest chain, and a choice that depends on
// nothing but the call graph, so every run renders the same chains. The
// fixpoint only records which callee each (function, lock) goes through;
// the strings are rendered once, at the end.
func (pr *Program) computeTransitiveLocks() {
	infos := pr.FuncsSorted()
	index := make(map[string]int, len(infos))
	shorts := make([]string, len(infos))
	for i, info := range infos {
		index[info.Ref.key()] = i
		shorts[i] = info.Ref.Short()
	}
	// Every resolved call per function (not only held ones: the held-lock
	// walk records HeldCalls, transitive locks need all calls, so resolve
	// again from the AST), ordered by (short name, key) so that the first
	// callee holding a lock is the canonical one.
	callees := make([][]int, len(infos))
	for i, info := range infos {
		if info.Decl.Body == nil {
			continue
		}
		env := pr.Env(info)
		seen := map[int]bool{}
		ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if ref, ok := env.resolveCall(call); ok {
					if c, known := index[ref.key()]; known && !seen[c] {
						seen[c] = true
						callees[i] = append(callees[i], c)
					}
				}
			}
			return true
		})
		cs := callees[i]
		sort.Slice(cs, func(a, b int) bool {
			if shorts[cs[a]] != shorts[cs[b]] {
				return shorts[cs[a]] < shorts[cs[b]]
			}
			return cs[a] < cs[b]
		})
	}

	// via[f][lock] is the callee f reaches the lock through: direct for an
	// acquisition in f's own body, pending until the chain below f is known.
	const direct, pending = -1, -2
	via := make([]map[string]int, len(infos))
	for i, info := range infos {
		via[i] = make(map[string]int, len(info.Acquires))
		for lock := range info.Acquires {
			via[i][lock] = direct
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range infos {
			for _, c := range callees[i] {
				for lock := range via[c] {
					if _, ok := via[i][lock]; !ok {
						via[i][lock] = pending
						changed = true
					}
				}
			}
		}
	}
	// Settle the pending entries, lock by lock. An entry settles once its
	// canonical callee has: chains then only ever point at settled entries
	// and cannot loop. Mutual recursion can leave a round without progress
	// (each function's canonical callee is the other one); the first stalled
	// function then settles for its first already-settled callee instead.
	firstWith := func(i int, lock string, settled bool) int {
		for _, c := range callees[i] {
			if v, ok := via[c][lock]; ok && (!settled || v != pending) {
				return c
			}
		}
		return pending
	}
	locks := map[string]bool{}
	for i := range infos {
		for lock := range via[i] {
			locks[lock] = true
		}
	}
	for lock := range locks {
		var open []int
		for i := range infos {
			if v, ok := via[i][lock]; ok && v == pending {
				open = append(open, i)
			}
		}
		for len(open) > 0 {
			rest := open[:0]
			for _, i := range open {
				if c := firstWith(i, lock, false); via[c][lock] != pending {
					via[i][lock] = c
				} else {
					rest = append(rest, i)
				}
			}
			if len(rest) == len(open) {
				// A pending lock always has a settled path below it, so
				// some stalled function has a settled callee.
				k := slices.IndexFunc(rest, func(i int) bool { return firstWith(i, lock, true) != pending })
				if k < 0 {
					break
				}
				via[rest[k]][lock] = firstWith(rest[k], lock, true)
				rest = slices.Delete(rest, k, k+1)
			}
			open = rest
		}
	}

	var render func(i int, lock string) string
	render = func(i int, lock string) string {
		c := via[i][lock]
		if c < 0 {
			return ""
		}
		if rest := render(c, lock); rest != "" {
			return shorts[c] + " → " + rest
		}
		return shorts[c]
	}
	for i, info := range infos {
		m := make(map[string]string, len(via[i]))
		for lock := range via[i] {
			m[lock] = render(i, lock)
		}
		pr.transLocks[info.Ref.key()] = m
	}
}

// propagateClosesParams extends ClosesParams across one level of call per
// iteration: a function that passes its parameter to a callee that closes
// it, closes it too.
func (pr *Program) propagateClosesParams() {
	infos := pr.FuncsSorted()
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			if info.Decl.Body == nil {
				continue
			}
			params := map[string]bool{}
			if info.Decl.Type.Params != nil {
				for _, fl := range info.Decl.Type.Params.List {
					for _, name := range fl.Names {
						if name.Name != "_" {
							params[name.Name] = true
						}
					}
				}
			}
			if len(params) == 0 {
				continue
			}
			env := pr.Env(info)
			ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				ref, ok := env.resolveCall(call)
				if !ok {
					return true
				}
				callee := pr.funcs[ref.key()]
				if callee == nil || callee.Decl == nil {
					return true
				}
				for i, arg := range call.Args {
					id, ok := arg.(*ast.Ident)
					if !ok || !params[id.Name] || info.ClosesParams[id.Name] {
						continue
					}
					pname := paramIndexName(callee.Decl, i)
					if pname == "" {
						continue
					}
					if callee.ClosesParams[pname] || callee.ConsumesParams[pname] {
						info.ClosesParams[id.Name] = true
						changed = true
					}
				}
				return true
			})
		}
	}
}
