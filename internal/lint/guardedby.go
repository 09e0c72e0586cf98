package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// guardedby enforces field-level lock discipline. A struct field annotated
//
//	// hana:guardedby mu
//
// (in its doc or trailing line comment; mu must be a sibling mutex field)
// may only be read or written while that mutex is held. Held-ness is the
// same branch-local, interprocedurally seeded lock set summary.go threads
// through lockorder: an access inside a LockedX helper is fine when every
// production call site of the helper holds the guard. Writes additionally
// require the exclusive Lock — a write under RLock is reported.
//
// Ownership exemptions keep constructors honest without annotations:
//   - accesses through a local bound to a freshly constructed value
//     (composite literal, new(T), a New*/Open* constructor result);
//   - accesses inside a function returning the owner type (a constructor);
//   - functions carrying a //hana:owned <reason> directive (single-
//     goroutine init or teardown where the struct is not yet / no longer
//     shared).
//
// Test files are exempt: tests routinely poke fields single-threaded.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "annotated struct fields must be accessed with their guarding mutex held",
	Run:  runGuardedBy,
}

// guardedDirective introduces a field guard annotation; ownedDirective
// exempts a whole function from guardedby checking. Both accept a space
// after // ("// hana:guardedby mu").
const (
	guardedDirective = "hana:guardedby"
	ownedDirective   = "hana:owned"
)

// directiveArg extracts the argument of a //hana:<name> comment, returning
// ok=false when the comment is not that directive.
func directiveArg(text, name string) (string, bool) {
	t := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(t, name) {
		return "", false
	}
	rest := t[len(name):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. hana:guardedbyx
	}
	return strings.TrimSpace(rest), true
}

// funcIsOwned reports whether the function's doc comment carries
// //hana:owned (single-goroutine ownership asserted by the author).
func funcIsOwned(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if _, ok := directiveArg(c.Text, ownedDirective); ok {
			return true
		}
	}
	return false
}

// guardedField is one parsed // hana:guardedby annotation.
type guardedField struct {
	Owner TypeRef
	Field string
	Guard string // sibling mutex field name
	Class string // normalized guard lock class, e.g. "dist.Worker.mu"
	Pos   token.Pos
}

func (g *guardedField) short() string {
	return shortPkg(g.Owner.Pkg) + "." + g.Owner.Name + "." + g.Field
}

// guardProblem is a malformed-annotation diagnostic collected during fact
// building and reported by the pass owning its file.
type guardProblem struct {
	Pos token.Pos
	Msg string
}

// guardAccess is one read or write of an annotated field, with the guard's
// held mode at that point ("" not held, "r" RLock, "w" Lock).
type guardAccess struct {
	Field *guardedField
	Fn    *FuncInfo
	Pos   token.Pos
	Write bool
	Mode  string
	Owned bool
}

// sharedFieldStat backs SuggestGuards: per unannotated field, how often it
// is accessed with some lock of its owner held versus bare.
type sharedFieldStat struct {
	Owner    TypeRef
	Field    string
	Pos      token.Pos
	Locked   int
	Unlocked int
	Guards   map[string]int
	Funcs    map[string]bool
}

// guardFacts is the cross-package result of the guardedby analysis, built
// once per Run and cached on the Program.
type guardFacts struct {
	fields   map[TypeRef]map[string]*guardedField
	problems []guardProblem
	accesses []guardAccess
	shared   map[string]*sharedFieldStat
	// entry is the interprocedural seed: lock classes held at every
	// production call site of a function, with the weakest mode.
	entry map[string]map[string]string
}

// guardFactsOf builds (or returns the cached) guardedby facts.
func guardFactsOf(pr *Program) *guardFacts {
	if pr.guards != nil {
		return pr.guards
	}
	gf := &guardFacts{
		fields: map[TypeRef]map[string]*guardedField{},
		shared: map[string]*sharedFieldStat{},
		entry:  map[string]map[string]string{},
	}
	collectGuardAnnotations(pr, gf)
	computeEntryHeld(pr, gf)
	recordGuardAccesses(pr, gf)
	pr.guards = gf
	return gf
}

// collectGuardAnnotations parses // hana:guardedby on struct fields and
// validates the named guard against the struct's own fields.
func collectGuardAnnotations(pr *Program, gf *guardFacts) {
	for _, path := range sortedPkgPaths(pr.Pkgs) {
		pkg := pr.Pkgs[path]
		for _, file := range pkg.Files {
			imports := importMap(file)
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				owner := TypeRef{Pkg: pkg.Path, Name: ts.Name.Name}
				mutexFields := map[string]bool{}
				for _, fl := range st.Fields.List {
					ft := pr.namedType(pkg, imports, fl.Type)
					mutexy := ft.Pkg == "sync" && (ft.Name == "Mutex" || ft.Name == "RWMutex")
					for _, name := range fl.Names {
						if mutexy || looksLikeMutex(name.Name) {
							mutexFields[name.Name] = true
						}
					}
				}
				for _, fl := range st.Fields.List {
					guard, pos, ok := fieldGuardAnnotation(fl)
					if !ok {
						continue
					}
					if len(fl.Names) == 0 {
						gf.problems = append(gf.problems, guardProblem{Pos: pos,
							Msg: "// hana:guardedby cannot annotate an embedded field"})
						continue
					}
					if guard == "" || !mutexFields[guard] {
						gf.problems = append(gf.problems, guardProblem{Pos: pos,
							Msg: fmt.Sprintf("// hana:guardedby names %q, which is not a sibling mutex field of %s.%s",
								guard, shortPkg(owner.Pkg), owner.Name)})
						continue
					}
					class := shortPkg(owner.Pkg) + "." + owner.Name + "." + guard
					fm := gf.fields[owner]
					if fm == nil {
						fm = map[string]*guardedField{}
						gf.fields[owner] = fm
					}
					for _, name := range fl.Names {
						fm[name.Name] = &guardedField{
							Owner: owner, Field: name.Name, Guard: guard,
							Class: class, Pos: name.Pos(),
						}
					}
				}
				return false
			})
		}
	}
}

// fieldGuardAnnotation scans a struct field's doc and line comments for
// // hana:guardedby, returning the guard argument and the directive pos.
func fieldGuardAnnotation(fl *ast.Field) (string, token.Pos, bool) {
	for _, cg := range []*ast.CommentGroup{fl.Doc, fl.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if arg, ok := directiveArg(c.Text, guardedDirective); ok {
				return arg, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

func sortedPkgPaths(pkgs map[string]*Package) []string {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// ---- held-set walker ----

// guardWalker threads a lock set (class → mode) through one function body
// in source order, mirroring summaryWalker's branch-local discipline.
// Unlike summaryWalker, non-goroutine closures inherit the enclosing held
// set: a closure built and invoked under a lock runs under that lock in
// every idiom this repo uses. go-statement closures start from an empty
// set — they run concurrently by construction.
type guardWalker struct {
	pr    *Program
	env   *typeEnv
	info  *FuncInfo
	facts *guardFacts
	held  map[string]string // lock class → "r" | "w"
	owned map[string]bool   // locals bound to freshly constructed values
	fnOwn bool              // constructor / //hana:owned exemption

	// record: final pass, collect guardAccess + shared stats. Otherwise the
	// walk only accumulates call-site entry facts into acc/touched.
	record  bool
	acc     map[string]map[string]string
	touched map[string]bool
}

func newGuardWalker(pr *Program, info *FuncInfo, gf *guardFacts) *guardWalker {
	w := &guardWalker{
		pr: pr, env: pr.Env(info), info: info, facts: gf,
		held:  map[string]string{},
		owned: map[string]bool{},
		fnOwn: funcIsOwned(info.Decl),
	}
	for class, mode := range gf.entry[info.Ref.key()] {
		w.held[class] = mode
	}
	return w
}

// modeMin returns the weaker of two held modes ("" < "r" < "w").
func modeMin(a, b string) string {
	if a == "" || b == "" {
		return ""
	}
	if a == "r" || b == "r" {
		return "r"
	}
	return "w"
}

func (w *guardWalker) snapshot() map[string]string {
	out := make(map[string]string, len(w.held))
	for k, v := range w.held {
		out[k] = v
	}
	return out
}

// branch runs fn against a copy of the held set and restores it after:
// if/else arms, switch cases and select cases are mutually exclusive.
func (w *guardWalker) branch(fn func()) {
	saved := w.held
	w.held = make(map[string]string, len(saved))
	for k, v := range saved {
		w.held[k] = v
	}
	fn()
	w.held = saved
}

func (w *guardWalker) walkBody(body *ast.BlockStmt) {
	for _, s := range body.List {
		w.walkStmt(s)
	}
}

func (w *guardWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.walkBody(st)
	case *ast.ExprStmt:
		w.scanExpr(st.X)
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			w.scanTarget(l)
		}
		for _, e := range st.Rhs {
			w.scanExpr(e)
		}
		w.trackOwnership(st)
	case *ast.IncDecStmt:
		w.scanTarget(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
					w.trackVarOwnership(vs)
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the body; a
		// deferred closure inherits the current held set (the dominant idiom
		// is defer func() { … mu.Unlock() }() while holding mu).
		if class, kind := w.lockTransition(st.Call); class != "" && (kind == "Unlock" || kind == "RUnlock") {
			return
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkClosure(fl, true)
			return
		}
		for _, a := range st.Call.Args {
			w.scanExpr(a)
		}
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			w.scanExpr(a)
		}
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkClosure(fl, false)
		} else if ref, ok := w.env.resolveCall(st.Call); ok && !w.record && !w.info.TestFile {
			w.recordCallSite(ref, map[string]string{}) // runs concurrently: nothing held
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.scanExpr(e)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.scanExpr(st.Cond)
		w.branch(func() { w.walkBody(st.Body) })
		if st.Else != nil {
			w.branch(func() { w.walkStmt(st.Else) })
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Cond != nil {
			w.scanExpr(st.Cond)
		}
		w.walkBody(st.Body)
		if st.Post != nil {
			w.walkStmt(st.Post)
		}
	case *ast.RangeStmt:
		w.scanExpr(st.X)
		w.walkBody(st.Body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Tag != nil {
			w.scanExpr(st.Tag)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e)
				}
				w.branch(func() {
					for _, bs := range cc.Body {
						w.walkStmt(bs)
					}
				})
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.walkStmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.branch(func() {
					for _, bs := range cc.Body {
						w.walkStmt(bs)
					}
				})
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.branch(func() {
					for _, bs := range cc.Body {
						w.walkStmt(bs)
					}
				})
			}
		}
	case *ast.SendStmt:
		w.scanExpr(st.Chan)
		w.scanExpr(st.Value)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	}
}

// walkClosure descends into a function literal. inherit=true keeps the
// current held and owned sets (ordinary and deferred closures); goroutine
// closures start fresh — they run concurrently, and captured locals are no
// longer single-owner.
func (w *guardWalker) walkClosure(fl *ast.FuncLit, inherit bool) {
	inner := *w
	if inherit {
		inner.held = w.snapshot()
		inner.owned = make(map[string]bool, len(w.owned))
		for k := range w.owned {
			inner.owned[k] = true
		}
	} else {
		inner.held = map[string]string{}
		inner.owned = map[string]bool{}
	}
	inner.walkBody(fl.Body)
}

// scanTarget records write accesses on assignment / inc-dec targets and
// read accesses on any index or selector prefix feeding them.
func (w *guardWalker) scanTarget(e ast.Expr) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		w.scanTarget(x.X)
	case *ast.StarExpr:
		w.scanTarget(x.X)
	case *ast.SelectorExpr:
		w.access(x, true)
		w.scanExpr(x.X)
	case *ast.IndexExpr:
		w.scanTarget(x.X)
		w.scanExpr(x.Index)
	default:
		w.scanExpr(e)
	}
}

// trackOwnership marks locals bound to freshly constructed values as owned
// for the rest of the function, and revokes ownership on reassignment to
// anything else.
func (w *guardWalker) trackOwnership(st *ast.AssignStmt) {
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return
	}
	id, ok := st.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if w.freshValue(st.Rhs[0]) {
		w.owned[id.Name] = true
	} else {
		delete(w.owned, id.Name)
	}
}

func (w *guardWalker) trackVarOwnership(vs *ast.ValueSpec) {
	if len(vs.Names) != 1 || len(vs.Values) != 1 {
		return
	}
	if vs.Names[0].Name != "_" && w.freshValue(vs.Values[0]) {
		w.owned[vs.Names[0].Name] = true
	}
}

// freshValue reports whether the expression constructs a new value no other
// goroutine can reference yet: composite literals, new(T), and calls to
// New*/Open*-named constructors.
func (w *guardWalker) freshValue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, lit := x.X.(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
		if ref, ok := w.env.resolveCall(x); ok {
			return strings.HasPrefix(ref.Name, "New") || strings.HasPrefix(ref.Name, "Open")
		}
	}
	return false
}

func (w *guardWalker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.walkClosure(x, true)
			return false
		case *ast.CallExpr:
			w.handleCall(x)
			return false
		case *ast.SelectorExpr:
			w.access(x, false)
			return true // descend: x.f.g reads x.f too
		}
		return true
	})
}

func (w *guardWalker) handleCall(call *ast.CallExpr) {
	if class, kind := w.lockTransition(call); class != "" {
		switch kind {
		case "Lock":
			w.held[class] = "w"
		case "RLock":
			if w.held[class] != "w" {
				w.held[class] = "r"
			}
		case "Unlock", "RUnlock":
			delete(w.held, class)
		}
		return
	}
	// delete(m, k) mutates its first operand.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		w.scanTarget(call.Args[0])
		w.scanExpr(call.Args[1])
		return
	}
	for _, a := range call.Args {
		w.scanExpr(a)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.scanExpr(sel.X)
	}
	if !w.record && !w.info.TestFile {
		if ref, ok := w.env.resolveCall(call); ok {
			w.recordCallSite(ref, w.snapshot())
		}
	}
}

// lockTransition mirrors summaryWalker's classification of x.mu.Lock().
func (w *guardWalker) lockTransition(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if key := exprKey(sel.X); key == "" || !looksLikeMutex(key) {
		return "", ""
	}
	return w.env.lockClass(sel.X), sel.Sel.Name
}

// recordCallSite folds one production call site's held set into the
// callee's entry intersection.
func (w *guardWalker) recordCallSite(ref FuncRef, held map[string]string) {
	key := ref.key()
	if !w.touched[key] {
		w.touched[key] = true
		w.acc[key] = held
		return
	}
	cur := w.acc[key]
	for class, mode := range cur {
		m, ok := held[class]
		if !ok {
			delete(cur, class)
			continue
		}
		cur[class] = modeMin(mode, m)
	}
}

// access records one selector access when the base is a typed owner.
func (w *guardWalker) access(sel *ast.SelectorExpr, write bool) {
	if !w.record {
		return
	}
	owner := w.env.typeOf(sel.X)
	if owner.zero() {
		return
	}
	gf := w.facts.fields[owner][sel.Sel.Name]
	ownedAccess := w.fnOwn || w.info.ResultType == owner || w.ownedBase(sel.X)
	if gf == nil {
		w.sharedStat(owner, sel, write, ownedAccess)
		return
	}
	w.facts.accesses = append(w.facts.accesses, guardAccess{
		Field: gf, Fn: w.info, Pos: sel.Sel.Pos(),
		Write: write, Mode: w.held[gf.Class], Owned: ownedAccess,
	})
}

// ownedBase reports whether the base-most identifier of a selector chain is
// an owned (freshly constructed, unpublished) local.
func (w *guardWalker) ownedBase(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return w.owned[x.Name]
		default:
			return false
		}
	}
}

// sharedStat feeds SuggestGuards: unannotated field accesses classified by
// whether some lock of the owner type is held.
func (w *guardWalker) sharedStat(owner TypeRef, sel *ast.SelectorExpr, write, owned bool) {
	if w.info.TestFile || owned || looksLikeMutex(sel.Sel.Name) {
		return
	}
	if _, known := w.pr.fields[owner]; !known {
		return
	}
	key := owner.Pkg + "." + owner.Name + "." + sel.Sel.Name
	st := w.facts.shared[key]
	if st == nil {
		st = &sharedFieldStat{Owner: owner, Field: sel.Sel.Name, Pos: sel.Sel.Pos(),
			Guards: map[string]int{}, Funcs: map[string]bool{}}
		w.facts.shared[key] = st
	}
	st.Funcs[w.info.Ref.key()] = true
	prefix := shortPkg(owner.Pkg) + "." + owner.Name + "."
	heldGuard := ""
	for class := range w.held {
		if strings.HasPrefix(class, prefix) {
			if heldGuard == "" || class < heldGuard {
				heldGuard = class
			}
		}
	}
	if heldGuard != "" {
		if write {
			st.Locked++
		}
		st.Guards[heldGuard]++
		return
	}
	st.Unlocked++
}

// ---- interprocedural entry-held fixpoint ----

// computeEntryHeld iterates the whole-program walk until the per-function
// entry lock sets stabilize: entry(f) = ⋂ over production call sites of the
// locks held at the site (weakest mode wins). Functions with no production
// call sites keep an empty entry. The sets only grow round over round, so
// the least fixpoint is reached from empty seeds.
func computeEntryHeld(pr *Program, gf *guardFacts) {
	infos := pr.FuncsSorted()
	for round := 0; round < 10; round++ {
		acc := map[string]map[string]string{}
		touched := map[string]bool{}
		for _, info := range infos {
			if info.Decl.Body == nil || info.TestFile {
				continue
			}
			w := newGuardWalker(pr, info, gf)
			w.acc, w.touched = acc, touched
			w.walkBody(info.Decl.Body)
		}
		if entryEqual(gf.entry, acc) {
			return
		}
		gf.entry = acc
	}
}

func entryEqual(a, b map[string]map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, am := range a {
		bm, ok := b[k]
		if !ok || len(am) != len(bm) {
			return false
		}
		for c, m := range am {
			if bm[c] != m {
				return false
			}
		}
	}
	return true
}

// recordGuardAccesses runs the final, recording walk with the converged
// entry sets seeded.
func recordGuardAccesses(pr *Program, gf *guardFacts) {
	for _, info := range pr.FuncsSorted() {
		if info.Decl.Body == nil {
			continue
		}
		w := newGuardWalker(pr, info, gf)
		w.record = true
		w.walkBody(info.Decl.Body)
	}
}

// ---- reporting ----

func runGuardedBy(pass *Pass) {
	gf := guardFactsOf(pass.Prog)
	own := map[string]bool{}
	for _, f := range pass.Pkg.Files {
		own[pass.Pkg.Fset.Position(f.Pos()).Filename] = true
	}
	for _, p := range gf.problems {
		if own[pass.Pkg.Fset.Position(p.Pos).Filename] {
			pass.Reportf(p.Pos, "%s", p.Msg)
		}
	}
	seen := map[string]bool{}
	for _, a := range gf.accesses {
		if a.Fn.TestFile || a.Owned {
			continue
		}
		pos := pass.Pkg.Fset.Position(a.Pos)
		if !own[pos.Filename] {
			continue
		}
		var msg string
		switch {
		case a.Mode == "" && a.Write:
			msg = fmt.Sprintf("write to %s without holding its guard %s (// hana:guardedby %s)",
				a.Field.short(), a.Field.Class, a.Field.Guard)
		case a.Mode == "":
			msg = fmt.Sprintf("read of %s without holding its guard %s (// hana:guardedby %s)",
				a.Field.short(), a.Field.Class, a.Field.Guard)
		case a.Mode == "r" && a.Write:
			msg = fmt.Sprintf("write to %s under RLock of %s; writes require the exclusive Lock",
				a.Field.short(), a.Field.Class)
		default:
			continue
		}
		// One report per field and line: `x.f = append(x.f, …)` is a single
		// finding, not a read plus a write.
		key := fmt.Sprintf("%s:%d:%s", pos.Filename, pos.Line, a.Field.Field)
		if seen[key] {
			continue
		}
		seen[key] = true
		pass.Reportf(a.Pos, "%s", msg)
	}
}

// GuardSuggestion is one UnannotatedSharedFields candidate: a field written
// under an owner lock somewhere and accessed bare elsewhere.
type GuardSuggestion struct {
	Owner    TypeRef
	Field    string
	Guard    string
	Locked   int // lock-held writes observed
	Unlocked int // bare accesses observed
	Pos      token.Position
}

// SuggestGuards lists unannotated fields that look shared: written at least
// once with a lock of their owner held, and accessed at least once with no
// owner lock held, across more than one function. The list is advisory
// (surfaced by hanalint -suggest-guards), not a diagnostic: the bare access
// may be constructor-time or otherwise safe — annotating the field turns
// the question into a checked invariant either way.
func SuggestGuards(pr *Program) []GuardSuggestion {
	gf := guardFactsOf(pr)
	var out []GuardSuggestion
	for _, key := range sortedStatKeys(gf.shared) {
		st := gf.shared[key]
		if st.Locked == 0 || st.Unlocked == 0 || len(st.Funcs) < 2 {
			continue
		}
		guard, best := "", -1
		for g, n := range st.Guards {
			if n > best || (n == best && g < guard) {
				guard, best = g, n
			}
		}
		fset := pr.Pkgs[st.Owner.Pkg]
		pos := token.Position{}
		if fset != nil {
			pos = fset.Fset.Position(st.Pos)
		}
		out = append(out, GuardSuggestion{
			Owner: st.Owner, Field: st.Field, Guard: guard,
			Locked: st.Locked, Unlocked: st.Unlocked, Pos: pos,
		})
	}
	return out
}

func sortedStatKeys(m map[string]*sharedFieldStat) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
