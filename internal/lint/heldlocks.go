package lint

import (
	"go/ast"
	"go/token"
	"maps"
)

// The held-lock walk: one pass over a function body, in source order, that
// knows which mutexes are held at every statement. locksafe, the lock
// summaries lockorder reads, and guardedby all run it; each supplies a
// lockVisitor that records what it needs and says how a closure is walked.
//
// Held-ness is branch-local: if/else arms and switch and select cases are
// mutually exclusive, so each walks a copy of the held set and the entry
// set is restored afterwards (a deferred Unlock in one switch case would
// otherwise manufacture a self-deadlock edge in the next case, and an
// early `Unlock(); return` arm would hide a send after the if). What a
// visitor records persists — only held-ness is branch-local. Loop bodies
// are walked once.

// heldLock is one mutex held at a point of the walk.
type heldLock struct {
	class string // normalized class ("engine.Engine.mu"); "" when the lock cannot be attributed to a shared structure
	mode  string // "w" after Lock, "r" after RLock
}

// lockWalk threads the held set through one body. held is keyed by the
// receiver expression ("b.mu"), which locksafe names in its messages and
// which also tells untypeable locals apart; a lock seeded from call-site
// facts has no expression and is keyed by its class.
type lockWalk struct {
	env  *typeEnv
	v    lockVisitor
	held map[string]heldLock
}

// lockVisitor is what one analyzer records along the walk.
type lockVisitor interface {
	// lock sees a Lock/RLock of key before l joins the held set.
	lock(w *lockWalk, call *ast.CallExpr, key string, l heldLock)
	// unlock sees an Unlock/RUnlock of key, deferred ones included.
	unlock(key string)
	// call sees every other call once its operands are walked; for a
	// go statement's call the held set is empty.
	call(w *lockWalk, call *ast.CallExpr)
	// closure walks a function literal (usually with w.sub), deciding
	// whether it starts from the current held set.
	closure(w *lockWalk, fl *ast.FuncLit, goStmt, deferred bool)
	// access sees a selector read, or the target of a write.
	access(w *lockWalk, sel *ast.SelectorExpr, write bool)
	// bind sees `name := value`, `name = value` and `var name = value`.
	bind(w *lockWalk, name string, value ast.Expr)
	// blocking sees a channel send, a receive and a select.
	blocking(w *lockWalk, pos token.Pos, what string)
}

// lockHooks is the do-nothing lockVisitor the analyzers' visitors embed.
type lockHooks struct{}

func (lockHooks) lock(*lockWalk, *ast.CallExpr, string, heldLock) {}
func (lockHooks) unlock(string)                                   {}
func (lockHooks) call(*lockWalk, *ast.CallExpr)                   {}
func (lockHooks) access(*lockWalk, *ast.SelectorExpr, bool)       {}
func (lockHooks) bind(*lockWalk, string, ast.Expr)                {}
func (lockHooks) blocking(*lockWalk, token.Pos, string)           {}

// walkHeld walks body with v, starting from the seeded classes (class →
// mode) held.
func walkHeld(env *typeEnv, v lockVisitor, seed map[string]string, body *ast.BlockStmt) {
	w := &lockWalk{env: env, v: v, held: make(map[string]heldLock, len(seed))}
	for class, mode := range seed {
		w.held[class] = heldLock{class: class, mode: mode}
	}
	w.body(body.List)
}

// sub walks a function literal with v: from a copy of the current held set
// when inherit, from an empty one otherwise.
func (w *lockWalk) sub(fl *ast.FuncLit, v lockVisitor, inherit bool) {
	held := map[string]heldLock{}
	if inherit {
		held = maps.Clone(w.held)
	}
	(&lockWalk{env: w.env, v: v, held: held}).body(fl.Body.List)
}

// classes returns the attributable held classes with their strongest mode.
func (w *lockWalk) classes() map[string]string {
	out := map[string]string{}
	for _, l := range w.held {
		if l.class != "" && out[l.class] != "w" {
			out[l.class] = l.mode
		}
	}
	return out
}

func (w *lockWalk) body(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

// branch walks one of several mutually exclusive arms.
func (w *lockWalk) branch(list []ast.Stmt) {
	saved := w.held
	w.held = maps.Clone(saved)
	w.body(list)
	w.held = saved
}

func (w *lockWalk) exprs(list []ast.Expr) {
	for _, e := range list {
		w.expr(e)
	}
}

// stmt walks one statement; a nil one (an absent if/for/switch Init or
// for Post) is a no-op.
func (w *lockWalk) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.body(st.List)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			w.target(l)
		}
		w.exprs(st.Rhs)
		if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			if id, ok := st.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				w.v.bind(w, id.Name, st.Rhs[0])
			}
		}
	case *ast.IncDecStmt:
		w.target(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values)
					if len(vs.Names) == 1 && len(vs.Values) == 1 && vs.Names[0].Name != "_" {
						w.v.bind(w, vs.Names[0].Name, vs.Values[0])
					}
				}
			}
		}
	case *ast.ReturnStmt:
		w.exprs(st.Results)
	case *ast.SendStmt:
		w.v.blocking(w, st.Arrow, "channel send")
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the body.
		if key, _, method := w.lockCall(st.Call); method == "Unlock" || method == "RUnlock" {
			w.v.unlock(key)
			return
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.v.closure(w, fl, false, true)
			return
		}
		w.exprs(st.Call.Args)
	case *ast.GoStmt:
		w.exprs(st.Call.Args)
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.v.closure(w, fl, true, false)
			return
		}
		saved := w.held
		w.held = map[string]heldLock{}
		w.v.call(w, st.Call)
		w.held = saved
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.branch(st.Body.List)
		if st.Else != nil {
			w.branch([]ast.Stmt{st.Else})
		}
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.expr(st.Cond)
		w.body(st.Body.List)
		w.stmt(st.Post)
	case *ast.RangeStmt:
		w.expr(st.X)
		w.body(st.Body.List)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.expr(st.Tag)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			w.exprs(cc.List)
			w.branch(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		for _, c := range st.Body.List {
			w.branch(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		w.v.blocking(w, st.Select, "select statement")
		for _, c := range st.Body.List {
			w.branch(c.(*ast.CommClause).Body)
		}
	}
}

// target walks an assignment or inc/dec target: the selector it writes,
// and as reads any index or selector prefix feeding it.
func (w *lockWalk) target(e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		w.target(x.X)
	case *ast.StarExpr:
		w.target(x.X)
	case *ast.SelectorExpr:
		w.v.access(w, x, true)
		w.expr(x.X)
	case *ast.IndexExpr:
		w.target(x.X)
		w.expr(x.Index)
	default:
		w.expr(e)
	}
}

func (w *lockWalk) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.v.closure(w, x, false, false)
			return false
		case *ast.CallExpr:
			w.call(x)
			return false
		case *ast.SelectorExpr:
			w.v.access(w, x, false) // and descend: x.f.g reads x.f too
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.v.blocking(w, x.OpPos, "channel receive")
			}
		}
		return true
	})
}

func (w *lockWalk) call(call *ast.CallExpr) {
	key, class, method := w.lockCall(call)
	switch method {
	case "Lock", "RLock":
		l := heldLock{class: class, mode: "r"}
		if method == "Lock" || w.held[key].mode == "w" {
			l.mode = "w"
		}
		w.v.lock(w, call, key, l)
		w.held[key] = l
	case "Unlock", "RUnlock":
		w.v.unlock(key)
		delete(w.held, key)
		if class != "" {
			delete(w.held, class) // a lock seeded by its class alone
		}
	}
	if method != "" {
		if class == "" {
			// An unattributable receiver is an ordinary expression: its
			// selector prefix is still read.
			w.expr(call.Fun.(*ast.SelectorExpr).X)
		}
		return
	}
	// delete(m, k) mutates its first operand.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		w.target(call.Args[0])
		w.expr(call.Args[1])
		return
	}
	w.exprs(call.Args)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else {
		w.expr(call.Fun) // func() { … }() and fns[i]() run here too
	}
	w.v.call(w, call)
}

// lockCall classifies x.mu.Lock()-shaped calls: the receiver's key ("x.mu"),
// its class (typeEnv.lockClass, "" when unattributable) and the method, or
// all "" for any other call. Only conventionally named receivers count
// (looksLikeMutex), so unrelated Lock/Unlock APIs don't confuse the walk.
func (w *lockWalk) lockCall(call *ast.CallExpr) (key, class, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", ""
	}
	if key = exprKey(sel.X); key == "" || !looksLikeMutex(key) {
		return "", "", ""
	}
	return key, w.env.lockClass(sel.X), sel.Sel.Name
}
