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
// The held set is the branch-local one of the shared held-lock walk
// (heldlocks.go), keyed by the receiver expression so messages name `b.mu`
// and untypeable locals are tracked too; function literals start from an
// empty set. Loop bodies are walked once, so some interleavings are
// under-reported, but the walk stays false-positive-free on the repo's
// lock idioms.
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
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				s := newLockSafety(pass, fields)
				walkHeld(pass.Prog.Env(pass.Prog.InfoFor(fd)), s, nil, fd.Body)
				s.finish()
			}
		}
	}
}

// lockSafety is locksafe's visitor for one function body; each function
// literal gets its own.
type lockSafety struct {
	lockHooks
	pass   *Pass
	fields map[string]bool // func-typed struct fields of the package

	locked   []string             // keys Locked in this body, in order of first Lock
	first    map[string]token.Pos // key → its first Lock, kept apart from the branch-local held set
	unlocked map[string]bool      // keys with at least one Unlock/RUnlock
}

func newLockSafety(pass *Pass, fields map[string]bool) *lockSafety {
	return &lockSafety{pass: pass, fields: fields, first: map[string]token.Pos{}, unlocked: map[string]bool{}}
}

// finish reports each key the body Locks but never Unlocks.
func (s *lockSafety) finish() {
	for _, key := range s.locked {
		if !s.unlocked[key] {
			s.pass.Reportf(s.first[key], "%s.Lock() without a matching Unlock in this function", key)
		}
	}
}

func (s *lockSafety) lock(_ *lockWalk, call *ast.CallExpr, key string, _ heldLock) {
	if _, ok := s.first[key]; !ok {
		s.first[key] = call.Pos()
		s.locked = append(s.locked, key)
	}
}

// unlock satisfies the must-unlock rule; a deferred Unlock keeps the lock
// held through the rest of the function, and later hazards are still
// hazards.
func (s *lockSafety) unlock(key string) { s.unlocked[key] = true }

// closure checks a function literal on its own, from an empty held set: its
// body does not (in general) run at the point it is written. The Unlocks of
// a deferred literal (defer func() { … mu.Unlock() … }()) also count for
// the enclosing body.
func (s *lockSafety) closure(w *lockWalk, fl *ast.FuncLit, _, deferred bool) {
	if deferred {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if key, _, method := w.lockCall(call); method == "Unlock" || method == "RUnlock" {
					s.unlocked[key] = true
				}
			}
			return true
		})
	}
	inner := newLockSafety(s.pass, s.fields)
	w.sub(fl, inner, false)
	inner.finish()
}

func (s *lockSafety) call(w *lockWalk, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(w.held) == 0 {
		return
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if testFailCalls[name] && testRecvNames[id.Name] {
			s.blocking(w, call.Pos(), id.Name+"."+name+" (runtime.Goexit leaves the lock held)")
			return
		}
		if path, imported := w.env.imports[id.Name]; imported &&
			strings.HasPrefix(path, "hana/internal/") && path != s.pass.Pkg.Path &&
			s.takesLocks(FuncRef{Pkg: path, Name: name}) {
			s.blocking(w, call.Pos(), "call into "+path+" ("+id.Name+"."+name+"), which takes its own locks")
			return
		}
	}
	if s.fields[name] && !isMethodLike(s.pass.Pkg, name) {
		s.blocking(w, call.Pos(), "call through func-valued field ."+name+" (runs arbitrary code)")
	}
}

// takesLocks reports whether a call of fn can acquire a lock: by the
// interprocedural lock sets when the call resolves to a summarized function,
// and otherwise (a function value, a conversion, a package not loaded) when
// fn's package imports sync.
func (s *lockSafety) takesLocks(fn FuncRef) bool {
	if s.pass.Prog.Lookup(fn) != nil {
		return len(s.pass.Prog.TransitiveLocks(fn)) > 0
	}
	return importsSync(s.pass.All[fn.Pkg])
}

// blocking reports pos when any lock is held, naming the held locks in
// order.
func (s *lockSafety) blocking(w *lockWalk, pos token.Pos, what string) {
	if len(w.held) > 0 {
		s.pass.Reportf(pos, "%s while holding %s", what, strings.Join(sortedKeys(w.held), ", "))
	}
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
