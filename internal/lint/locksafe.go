package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// LockSafe flags lock-discipline hazards around sync.Mutex/RWMutex:
//
//   - a lock held across a channel send/receive or select (the goroutine
//     can block forever while holding the lock — the deadlock shape that
//     would wedge txn 2PC commit or esp window flushing);
//   - a lock held across t.Fatal/FailNow (runtime.Goexit leaves the lock
//     held and hangs every other test goroutine);
//   - a lock held across a call into another hana/internal package whose
//     callee can take a lock, directly or through its own callees
//     (Program.TransitiveLocks; lock-ordering hazard), or through a func-typed
//     struct field (arbitrary user code, e.g. esp pattern actions);
//   - Lock()/RLock() with no matching Unlock anywhere in the function
//     (leaked lock on some return path).
//
// The analysis is a linear, source-order approximation: it threads one
// held-lock set through the statement list and does not model branches
// precisely. That under-reports some interleavings but stays
// false-positive-free on the repo's lock idioms.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "mutex held across blocking or foreign calls; Lock without Unlock",
	Run:  runLockSafe,
}

var testFailCalls = map[string]bool{
	"Fatal": true, "Fatalf": true, "FailNow": true,
	"Skip": true, "Skipf": true, "SkipNow": true,
}

var testRecvNames = map[string]bool{"t": true, "b": true, "tb": true, "f": true}

func runLockSafe(pass *Pass) {
	fields := funcFields(pass.Pkg)
	for _, file := range pass.Pkg.Files {
		imports := importMap(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ls := &lockState{
				pass:    pass,
				imports: imports,
				fields:  fields,
				held:    map[string]token.Pos{},
				unlocks: map[string]bool{},
			}
			ls.walkBody(fd.Body)
			ls.finish()
		}
	}
}

type lockState struct {
	pass    *Pass
	imports map[string]string
	fields  map[string]bool

	held    map[string]token.Pos // lock key → position of the Lock call
	locked  []string             // every key ever locked, in order
	unlocks map[string]bool      // keys with at least one Unlock/RUnlock
}

func (ls *lockState) finish() {
	for _, key := range ls.locked {
		if !ls.unlocks[key] {
			ls.pass.Reportf(ls.held[key], "%s.Lock() without a matching Unlock in this function", key)
		}
	}
}

func (ls *lockState) walkBody(body *ast.BlockStmt) {
	for _, s := range body.List {
		ls.walkStmt(s)
	}
}

func (ls *lockState) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		ls.walkBody(st)
	case *ast.ExprStmt:
		ls.checkExpr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			ls.checkExpr(e)
		}
		for _, e := range st.Lhs {
			ls.checkExpr(e)
		}
	case *ast.DeclStmt:
		ls.checkExpr(nil) // no-op; declarations with values handled below
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ls.checkExpr(v)
					}
				}
			}
		}
	case *ast.DeferStmt:
		ls.walkDefer(st.Call)
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			ls.checkExpr(a)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			ls.walkClosure(fl)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			ls.checkExpr(e)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			ls.walkStmt(st.Init)
		}
		ls.checkExpr(st.Cond)
		ls.walkBody(st.Body)
		if st.Else != nil {
			ls.walkStmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			ls.walkStmt(st.Init)
		}
		if st.Cond != nil {
			ls.checkExpr(st.Cond)
		}
		ls.walkBody(st.Body)
		if st.Post != nil {
			ls.walkStmt(st.Post)
		}
	case *ast.RangeStmt:
		ls.checkExpr(st.X)
		ls.walkBody(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			ls.walkStmt(st.Init)
		}
		if st.Tag != nil {
			ls.checkExpr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					ls.checkExpr(e)
				}
				for _, bs := range cc.Body {
					ls.walkStmt(bs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			ls.walkStmt(st.Init)
		}
		ls.walkStmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, bs := range cc.Body {
					ls.walkStmt(bs)
				}
			}
		}
	case *ast.SelectStmt:
		ls.violationIfHeld(st.Select, "select statement")
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				for _, bs := range cc.Body {
					ls.walkStmt(bs)
				}
			}
		}
	case *ast.SendStmt:
		ls.violationIfHeld(st.Arrow, "channel send")
		ls.checkExpr(st.Chan)
		ls.checkExpr(st.Value)
	case *ast.LabeledStmt:
		ls.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		ls.checkExpr(st.X)
	}
}

// walkDefer processes a deferred call: a deferred Unlock satisfies the
// must-unlock rule and keeps the lock held through the rest of the
// function (which is fine per se — later hazards are still hazards).
func (ls *lockState) walkDefer(call *ast.CallExpr) {
	if key, kind := lockCallKey(call); key != "" && (kind == "Unlock" || kind == "RUnlock") {
		ls.unlocks[key] = true
		return
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		// defer func() { ... mu.Unlock() ... }() — scan for unlocks, then
		// analyze the closure body on its own.
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if ce, ok := n.(*ast.CallExpr); ok {
				if key, kind := lockCallKey(ce); key != "" && (kind == "Unlock" || kind == "RUnlock") {
					ls.unlocks[key] = true
				}
			}
			return true
		})
		ls.walkClosure(fl)
		return
	}
	for _, a := range call.Args {
		ls.checkExpr(a)
	}
}

// walkClosure analyzes a function literal with a fresh held-lock state:
// its body does not (in general) run at the point it is written.
func (ls *lockState) walkClosure(fl *ast.FuncLit) {
	inner := &lockState{
		pass:    ls.pass,
		imports: ls.imports,
		fields:  ls.fields,
		held:    map[string]token.Pos{},
		unlocks: map[string]bool{},
	}
	inner.walkBody(fl.Body)
	inner.finish()
}

// checkExpr scans an expression for lock transitions, receives, and
// hazardous calls. Function literals are analyzed separately.
func (ls *lockState) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			ls.walkClosure(x)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ls.violationIfHeld(x.OpPos, "channel receive")
			}
		case *ast.CallExpr:
			ls.checkCall(x)
		}
		return true
	})
}

func (ls *lockState) checkCall(call *ast.CallExpr) {
	if key, kind := lockCallKey(call); key != "" {
		switch kind {
		case "Lock", "RLock":
			ls.held[key] = call.Pos()
			ls.locked = append(ls.locked, key)
		case "Unlock", "RUnlock":
			ls.unlocks[key] = true
			delete(ls.held, key)
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(ls.held) == 0 {
		return
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if testFailCalls[name] && testRecvNames[id.Name] {
			ls.violationIfHeld(call.Pos(), id.Name+"."+name+" (runtime.Goexit leaves the lock held)")
			return
		}
		if path, imported := ls.imports[id.Name]; imported &&
			strings.HasPrefix(path, "hana/internal/") && path != ls.pass.Pkg.Path &&
			ls.takesLocks(FuncRef{Pkg: path, Name: name}) {
			ls.violationIfHeld(call.Pos(), "call into "+path+" ("+id.Name+"."+name+"), which takes its own locks")
			return
		}
	}
	if ls.fields[name] && !isMethodLike(ls.pass.Pkg, name) {
		ls.violationIfHeld(call.Pos(), "call through func-valued field ."+name+" (runs arbitrary code)")
	}
}

// takesLocks reports whether a call of fn can acquire a lock: by the
// interprocedural lock sets when the call resolves to a summarized function,
// and otherwise (a function value, a conversion, a package not loaded) when
// fn's package imports sync.
func (ls *lockState) takesLocks(fn FuncRef) bool {
	if ls.pass.Prog.Lookup(fn) != nil {
		return len(ls.pass.Prog.TransitiveLocks(fn)) > 0
	}
	return importsSync(ls.pass.All[fn.Pkg])
}

func (ls *lockState) violationIfHeld(pos token.Pos, what string) {
	for key := range ls.held {
		ls.pass.Reportf(pos, "%s while holding %s", what, key)
		return // one report per site is enough
	}
}

// lockCallKey classifies x.mu.Lock()-shaped calls, returning the receiver
// key ("x.mu") and the method kind, or ("", "").
func lockCallKey(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	key := exprKey(sel.X)
	if key == "" || !looksLikeMutex(key) {
		return "", ""
	}
	return key, sel.Sel.Name
}

// looksLikeMutex keeps the analysis to conventional mutex names (mu,
// lock, mtx, …) so unrelated Lock/Unlock APIs don't confuse it.
func looksLikeMutex(key string) bool {
	last := key
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		last = key[i+1:]
	}
	last = strings.ToLower(last)
	return strings.Contains(last, "mu") || strings.Contains(last, "lock") || last == "l"
}

// isMethodLike reports whether name is also declared as a method in pkg —
// in that case a call x.name() is more likely the method than a func field.
func isMethodLike(pkg *Package, name string) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.Name == name {
				return true
			}
		}
	}
	return false
}
