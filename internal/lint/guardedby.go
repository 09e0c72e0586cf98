package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"strings"
)

// guardedby enforces field-level lock discipline. A struct field annotated
//
//	// hana:guardedby mu
//
// (in its doc or trailing line comment; mu must be a sibling mutex field)
// may only be read or written while that mutex is held. Held-ness is the
// branch-local held-lock walk every lock analyzer shares (heldlocks.go),
// seeded interprocedurally: an access inside a LockedX helper is fine when
// every production call site of the helper holds the guard. Writes
// additionally require the exclusive Lock — a write under RLock is reported.
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
	for _, path := range sortedKeys(pr.Pkgs) {
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

// ---- the guarded-field visitor ----

// guardVisit runs along the held-lock walk (heldlocks.go) over one body,
// seeded with the body's entry set. Ordinary and deferred closures inherit
// the enclosing held set: a closure built and invoked under a lock runs
// under that lock in every idiom this repo uses (the dominant deferred one
// is defer func() { … mu.Unlock() }() while holding mu). go-statement
// closures start from an empty set — they run concurrently by
// construction.
type guardVisit struct {
	lockHooks
	pr    *Program
	info  *FuncInfo
	facts *guardFacts
	owned map[string]bool // locals bound to freshly constructed values
	fnOwn bool            // constructor / //hana:owned exemption

	// record: final pass, collect guardAccess + shared stats. Otherwise the
	// walk only accumulates call-site entry facts into acc/touched.
	record  bool
	acc     map[string]map[string]string
	touched map[string]bool
}

func (v *guardVisit) walk() {
	v.owned, v.fnOwn = map[string]bool{}, funcIsOwned(v.info.Decl)
	walkHeld(v.pr.Env(v.info), v, v.facts.entry[v.info.Ref.key()], v.info.Decl.Body)
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

// closure keeps the current owned set for ordinary and deferred closures;
// a goroutine's captured locals are no longer single-owner.
func (v *guardVisit) closure(w *lockWalk, fl *ast.FuncLit, goStmt, _ bool) {
	inner := *v
	inner.owned = map[string]bool{}
	if !goStmt {
		inner.owned = maps.Clone(v.owned)
	}
	w.sub(fl, &inner, !goStmt)
}

// bind marks locals bound to freshly constructed values as owned for the
// rest of the function, and revokes ownership on rebinding to anything
// else.
func (v *guardVisit) bind(w *lockWalk, name string, value ast.Expr) {
	if freshValue(w.env, value) {
		v.owned[name] = true
	} else {
		delete(v.owned, name)
	}
}

// freshValue reports whether the expression constructs a new value no other
// goroutine can reference yet: composite literals, new(T), and calls to
// New*/Open*-named constructors.
func freshValue(env *typeEnv, e ast.Expr) bool {
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
		if ref, ok := env.resolveCall(x); ok {
			return strings.HasPrefix(ref.Name, "New") || strings.HasPrefix(ref.Name, "Open")
		}
	}
	return false
}

// call folds a production call site's held set into the callee's entry
// facts while the fixpoint runs.
func (v *guardVisit) call(w *lockWalk, call *ast.CallExpr) {
	if v.record || v.info.TestFile {
		return
	}
	if ref, ok := w.env.resolveCall(call); ok {
		v.recordCallSite(ref, w.classes())
	}
}

// recordCallSite folds one production call site's held set into the
// callee's entry intersection.
func (v *guardVisit) recordCallSite(ref FuncRef, held map[string]string) {
	key := ref.key()
	if !v.touched[key] {
		v.touched[key] = true
		v.acc[key] = held
		return
	}
	cur := v.acc[key]
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
func (v *guardVisit) access(w *lockWalk, sel *ast.SelectorExpr, write bool) {
	if !v.record {
		return
	}
	owner := w.env.typeOf(sel.X)
	if owner.zero() {
		return
	}
	gf := v.facts.fields[owner][sel.Sel.Name]
	ownedAccess := v.fnOwn || v.info.ResultType == owner || v.ownedBase(sel.X)
	if gf == nil {
		v.sharedStat(w, owner, sel, write, ownedAccess)
		return
	}
	v.facts.accesses = append(v.facts.accesses, guardAccess{
		Field: gf, Fn: v.info, Pos: sel.Sel.Pos(),
		Write: write, Mode: w.classes()[gf.Class], Owned: ownedAccess,
	})
}

// ownedBase reports whether the base-most identifier of a selector chain is
// an owned (freshly constructed, unpublished) local.
func (v *guardVisit) ownedBase(e ast.Expr) bool {
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
			return v.owned[x.Name]
		default:
			return false
		}
	}
}

// sharedStat feeds SuggestGuards: unannotated field accesses classified by
// whether some lock of the owner type is held.
func (v *guardVisit) sharedStat(w *lockWalk, owner TypeRef, sel *ast.SelectorExpr, write, owned bool) {
	if v.info.TestFile || owned || looksLikeMutex(sel.Sel.Name) {
		return
	}
	if _, known := v.pr.fields[owner]; !known {
		return
	}
	key := owner.Pkg + "." + owner.Name + "." + sel.Sel.Name
	st := v.facts.shared[key]
	if st == nil {
		st = &sharedFieldStat{Owner: owner, Field: sel.Sel.Name, Pos: sel.Sel.Pos(),
			Guards: map[string]int{}, Funcs: map[string]bool{}}
		v.facts.shared[key] = st
	}
	st.Funcs[v.info.Ref.key()] = true
	prefix := shortPkg(owner.Pkg) + "." + owner.Name + "."
	heldGuard := ""
	for _, class := range sortedKeys(w.classes()) {
		if strings.HasPrefix(class, prefix) {
			heldGuard = class
			break
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
// call sites keep an empty entry. The sets only grow round over round, over
// a finite lattice of classes and modes, so iterating until nothing changes
// reaches the least fixpoint from empty seeds; a call chain of depth n
// takes n rounds.
func computeEntryHeld(pr *Program, gf *guardFacts) {
	infos := pr.FuncsSorted()
	for {
		acc := map[string]map[string]string{}
		touched := map[string]bool{}
		for _, info := range infos {
			if info.Decl.Body == nil || info.TestFile {
				continue
			}
			(&guardVisit{pr: pr, info: info, facts: gf, acc: acc, touched: touched}).walk()
		}
		if maps.EqualFunc(gf.entry, acc, maps.Equal) {
			return
		}
		gf.entry = acc
	}
}

// recordGuardAccesses runs the final, recording walk with the converged
// entry sets seeded.
func recordGuardAccesses(pr *Program, gf *guardFacts) {
	for _, info := range pr.FuncsSorted() {
		if info.Decl.Body == nil {
			continue
		}
		(&guardVisit{pr: pr, info: info, facts: gf, record: true}).walk()
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
	for _, key := range sortedKeys(gf.shared) {
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
