package expr

import (
	"sort"
	"strings"

	"hana/internal/value"
)

// Vectorized predicate evaluation (ROADMAP item 2). SelectBatch refines a
// batch's selection vector through a predicate without materializing rows:
// conjuncts whose operands are column vectors and literals compile to
// three-valued kernels that run over primitive arrays — and, for VARCHAR
// columns still in dictionary-encoded form, over dictionary codes, so an
// equality against a sorted main dictionary costs one binary search per
// batch plus one integer compare per row.
//
// Kernels return one of three verdicts per row. The encoding is ordered
// false < null < true so that AND is min() and OR is max(), which matches
// SQL three-valued logic for operands that are genuine booleans — and every
// compiled kernel yields only genuine booleans or NULL, never a coerced
// non-bool truth value, keeping the composition exact.
//
// Conjuncts that do not compile (arbitrary arithmetic, CASE, scalar
// functions, correlated nodes) fall back to one row-major pass that
// re-evaluates the FULL predicate through Expr.Eval on the rows surviving
// the kernels. Because a conjunction is genuinely true only when every
// bool-or-null conjunct is true, pre-filtering by compiled conjuncts and
// then re-checking the whole predicate selects exactly the rows the
// row-at-a-time path selects. The one visible difference is error order:
// rows a kernel rejects are never row-evaluated, so an evaluation error the
// row path would report (e.g. division by zero in a later conjunct) can be
// skipped; DESIGN.md documents this divergence.

// Tri-state verdicts, ordered so AND=min and OR=max.
const (
	triFalse int8 = 0
	triNull  int8 = 1
	triTrue  int8 = 2
)

func triBool(b bool) int8 {
	if b {
		return triTrue
	}
	return triFalse
}

// triKernel evaluates one predicate conjunct for a physical row index.
type triKernel func(i int) int8

// SelectBatch filters b in place: after the call, b's selection vector
// lists exactly the physical rows for which pred is genuinely true, in
// ascending order — the same rows Truthy keeps when called row by row.
// A nil predicate keeps everything. Errors from non-compiled conjuncts are
// propagated (first surviving row in batch order wins).
func SelectBatch(pred Expr, b *value.Batch) error {
	if pred == nil {
		return nil
	}
	conjs := SplitConjuncts(pred)
	kernels := make([]triKernel, 0, len(conjs))
	needFallback := false
	for _, c := range conjs {
		if k, ok := compileTri(c, b); ok {
			kernels = append(kernels, k)
		} else {
			needFallback = true
		}
	}
	if len(kernels) > 0 {
		applyKernels(b, kernels)
	}
	if !needFallback {
		return nil
	}
	// Row-major fallback: re-evaluate the full predicate on survivors
	// through its reader, which fills only the ordinals pred reads.
	read := Readers([]Expr{pred}, b)[0]
	n := b.Len()
	sel := b.Sel
	if sel == nil {
		sel = make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
	}
	out := sel[:0]
	for _, i := range sel {
		v, err := read(int(i))
		if err != nil {
			return err
		}
		if v.K == value.KindBool && v.Bool() {
			out = append(out, i)
		}
	}
	b.Sel = out
	return nil
}

// applyKernels keeps the rows every kernel accepts (AND semantics: a false
// or NULL verdict drops the row). The selection is refined in place; when
// the batch has no selection yet, one is allocated.
func applyKernels(b *value.Batch, kernels []triKernel) {
	if b.Sel == nil {
		sel := make([]int32, 0, b.N)
	scan:
		for i := 0; i < b.N; i++ {
			for _, k := range kernels {
				if k(i) != triTrue {
					continue scan
				}
			}
			sel = append(sel, int32(i))
		}
		b.Sel = sel
		return
	}
	out := b.Sel[:0]
live:
	for _, i := range b.Sel {
		for _, k := range kernels {
			if k(int(i)) != triTrue {
				continue live
			}
		}
		out = append(out, i)
	}
	b.Sel = out
}

// constKernel returns a kernel with a fixed verdict.
func constKernel(v int8) triKernel { return func(int) int8 { return v } }

// compileTri compiles a predicate subtree into a tri-state kernel. It
// succeeds only for subtrees that (a) cannot fail at evaluation time and
// (b) yield only genuine booleans or NULL — the properties the kernel
// composition relies on.
func compileTri(e Expr, b *value.Batch) (triKernel, bool) {
	switch n := e.(type) {
	case *Literal:
		if n.Val.IsNull() {
			return constKernel(triNull), true
		}
		if n.Val.K == value.KindBool {
			return constKernel(triBool(n.Val.Bool())), true
		}
		return nil, false
	case *ColRef:
		v, ok := colVec(n, b)
		if !ok {
			return nil, false
		}
		if v.Pruned {
			return constKernel(triNull), true
		}
		if v.Vals != nil || v.Kind != value.KindBool {
			return nil, false
		}
		ints := v.Ints
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return triBool(ints[i] != 0)
		}, true
	case *UnOp:
		if n.Op != OpNot {
			return nil, false
		}
		k, ok := compileTri(n.E, b)
		if !ok {
			return nil, false
		}
		return func(i int) int8 { return 2 - k(i) }, true
	case *BinOp:
		switch {
		case n.Op == OpAnd:
			l, ok := compileTri(n.L, b)
			if !ok {
				return nil, false
			}
			r, ok := compileTri(n.R, b)
			if !ok {
				return nil, false
			}
			return func(i int) int8 { return min8(l(i), r(i)) }, true
		case n.Op == OpOr:
			l, ok := compileTri(n.L, b)
			if !ok {
				return nil, false
			}
			r, ok := compileTri(n.R, b)
			if !ok {
				return nil, false
			}
			return func(i int) int8 { return max8(l(i), r(i)) }, true
		case n.Op.Comparison():
			return compileCmp(n.Op, n.L, n.R, b)
		}
		return nil, false
	case *Between:
		ge, ok := compileCmp(OpGe, n.E, n.Lo, b)
		if !ok {
			return nil, false
		}
		le, ok := compileCmp(OpLe, n.E, n.Hi, b)
		if !ok {
			return nil, false
		}
		neg := n.Negate
		return func(i int) int8 {
			a := ge(i)
			if a == triNull {
				return triNull
			}
			c := le(i)
			if c == triNull {
				return triNull
			}
			in := a == triTrue && c == triTrue
			return triBool(in != neg)
		}, true
	case *In:
		return compileIn(n, b)
	case *Like:
		return compileLike(n, b)
	case *IsNull:
		switch op := n.E.(type) {
		case *ColRef:
			v, ok := colVec(op, b)
			if !ok {
				return nil, false
			}
			neg := n.Negate
			return func(i int) int8 { return triBool(v.Null(i) != neg) }, true
		case *Literal:
			return constKernel(triBool(op.Val.IsNull() != n.Negate)), true
		}
		return nil, false
	}
	return nil, false
}

func min8(a, b int8) int8 {
	if a < b {
		return a
	}
	return b
}

func max8(a, b int8) int8 {
	if a > b {
		return a
	}
	return b
}

// colVec resolves a bound column reference to its vector in the batch.
func colVec(c *ColRef, b *value.Batch) (*value.Vec, bool) {
	if c.Ord < 0 || c.Ord >= len(b.Cols) {
		return nil, false
	}
	return &b.Cols[c.Ord], true
}

// cmpOperand is a comparison operand: either a column vector or a literal.
type cmpOperand struct {
	vec *value.Vec
	lit value.Value
}

func compileOperand(e Expr, b *value.Batch) (cmpOperand, bool) {
	switch n := e.(type) {
	case *ColRef:
		v, ok := colVec(n, b)
		if !ok {
			return cmpOperand{}, false
		}
		if v.Pruned { // pruned columns read as NULL everywhere
			return cmpOperand{lit: value.Null}, true
		}
		if v.Vals != nil { // boxed columns keep the row-major path
			return cmpOperand{}, false
		}
		return cmpOperand{vec: v}, true
	case *Literal:
		return cmpOperand{lit: n.Val}, true
	}
	return cmpOperand{}, false
}

// cmpVerdict maps a three-way comparison result to the operator's verdict.
func cmpVerdict(op Op, c int) int8 {
	switch op {
	case OpEq:
		return triBool(c == 0)
	case OpNe:
		return triBool(c != 0)
	case OpLt:
		return triBool(c < 0)
	case OpLe:
		return triBool(c <= 0)
	case OpGt:
		return triBool(c > 0)
	default: // OpGe
		return triBool(c >= 0)
	}
}

// compileCmp compiles `l op r` where both operands are column vectors or
// literals, mirroring value.Compare's promotion rules exactly: Int-Int
// compares integers, any Double promotes to float, temporal kinds compare
// by encoding, and incomparable kind pairs compare by kind tag (a constant
// per batch). NULL on either side yields NULL.
func compileCmp(op Op, l, r Expr, b *value.Batch) (triKernel, bool) {
	lo, ok := compileOperand(l, b)
	if !ok {
		return nil, false
	}
	ro, ok := compileOperand(r, b)
	if !ok {
		return nil, false
	}
	switch {
	case lo.vec == nil && ro.vec == nil:
		if lo.lit.IsNull() || ro.lit.IsNull() {
			return constKernel(triNull), true
		}
		return constKernel(cmpVerdict(op, value.Compare(lo.lit, ro.lit))), true
	case lo.vec != nil && ro.vec == nil:
		return compileCmpVecLit(op, lo.vec, ro.lit, false)
	case lo.vec == nil:
		return compileCmpVecLit(op, ro.vec, lo.lit, true)
	default:
		return compileCmpVecVec(op, lo.vec, ro.vec)
	}
}

// compileCmpVecLit compiles vec-vs-literal; flip=true means the literal is
// the left operand (the comparison sign is negated).
func compileCmpVecLit(op Op, v *value.Vec, lit value.Value, flip bool) (triKernel, bool) {
	if lit.IsNull() {
		return constKernel(triNull), true
	}
	sign := 1
	if flip {
		sign = -1
	}
	vk, lk := v.Kind, lit.K
	intKernel := func(litI int64) triKernel {
		ints := v.Ints
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return cmpVerdict(op, sign*cmpInt64(ints[i], litI))
		}
	}
	floatKernel := func(litF float64) triKernel {
		if vk == value.KindDouble {
			fs := v.Floats
			return func(i int) int8 {
				if v.Null(i) {
					return triNull
				}
				return cmpVerdict(op, sign*value.CompareFloats(fs[i], litF))
			}
		}
		ints := v.Ints
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return cmpVerdict(op, sign*value.CompareFloats(float64(ints[i]), litF))
		}
	}
	switch {
	case numericVecKind(vk) && numericVecKind(lk):
		if vk == value.KindInt && lk == value.KindInt {
			return intKernel(lit.I), true
		}
		return floatKernel(lit.Float()), true
	case vk != lk:
		if temporalVecKind(vk) && temporalVecKind(lk) {
			return intKernel(lit.I), true
		}
		// Incomparable kinds: value.Compare orders by kind tag, which is
		// constant for the whole vector; NULL rows still yield NULL.
		vd := cmpVerdict(op, sign*cmpInt64(int64(vk), int64(lk)))
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return vd
		}, true
	case vk == value.KindDouble:
		return floatKernel(lit.F), true
	case vk == value.KindVarchar:
		return compileCmpStrLit(op, v, lit.S, sign), true
	default: // Bool, Int, Date, Timestamp: integer payloads
		return intKernel(lit.I), true
	}
}

// compileCmpStrLit compares a VARCHAR vector against a string literal. On a
// sorted dictionary the literal's rank is found once per batch and rows
// compare codes against it; on an unsorted (delta) dictionary a verdict per
// dictionary entry is precomputed; materialized strings compare directly.
func compileCmpStrLit(op Op, v *value.Vec, lit string, sign int) triKernel {
	if v.Codes != nil {
		dict, codes := v.Dict, v.Codes
		if v.Sorted {
			lb := sort.SearchStrings(dict, lit)
			exact := lb < len(dict) && dict[lb] == lit
			return func(i int) int8 {
				if v.Null(i) {
					return triNull
				}
				c := int(codes[i])
				cmp := 1
				switch {
				case c < lb:
					cmp = -1
				case c == lb && exact:
					cmp = 0
				}
				return cmpVerdict(op, sign*cmp)
			}
		}
		verdicts := make([]int8, len(dict))
		for c, s := range dict {
			verdicts[c] = cmpVerdict(op, sign*strings.Compare(s, lit))
		}
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return verdicts[codes[i]]
		}
	}
	strs := v.Strs
	return func(i int) int8 {
		if v.Null(i) {
			return triNull
		}
		return cmpVerdict(op, sign*strings.Compare(strs[i], lit))
	}
}

// compileCmpVecVec compiles vec-vs-vec comparisons for numeric and temporal
// payloads (the VARCHAR-vs-VARCHAR case keeps the row path: the two vectors
// generally use different dictionaries).
func compileCmpVecVec(op Op, a, bv *value.Vec) (triKernel, bool) {
	ak, bk := a.Kind, bv.Kind
	nulls := func(i int) bool { return a.Null(i) || bv.Null(i) }
	intCmp := func() triKernel {
		ai, bi := a.Ints, bv.Ints
		return func(i int) int8 {
			if nulls(i) {
				return triNull
			}
			return cmpVerdict(op, cmpInt64(ai[i], bi[i]))
		}
	}
	switch {
	case numericVecKind(ak) && numericVecKind(bk):
		if ak == value.KindInt && bk == value.KindInt {
			return intCmp(), true
		}
		af, bf := vecFloatGetter(a), vecFloatGetter(bv)
		return func(i int) int8 {
			if nulls(i) {
				return triNull
			}
			return cmpVerdict(op, value.CompareFloats(af(i), bf(i)))
		}, true
	case ak != bk:
		if temporalVecKind(ak) && temporalVecKind(bk) {
			return intCmp(), true
		}
		vd := cmpVerdict(op, cmpInt64(int64(ak), int64(bk)))
		return func(i int) int8 {
			if nulls(i) {
				return triNull
			}
			return vd
		}, true
	case ak == value.KindDouble:
		af, bf := a.Floats, bv.Floats
		return func(i int) int8 {
			if nulls(i) {
				return triNull
			}
			return cmpVerdict(op, value.CompareFloats(af[i], bf[i]))
		}, true
	case ak == value.KindVarchar:
		return nil, false
	default:
		return intCmp(), true
	}
}

func vecFloatGetter(v *value.Vec) func(int) float64 {
	if v.Kind == value.KindDouble {
		fs := v.Floats
		return func(i int) float64 { return fs[i] }
	}
	ints := v.Ints
	return func(i int) float64 { return float64(ints[i]) }
}

func numericVecKind(k value.Kind) bool  { return k == value.KindInt || k == value.KindDouble }
func temporalVecKind(k value.Kind) bool { return k == value.KindDate || k == value.KindTimestamp }

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compileIn compiles `E [NOT] IN (set)` once its key set is built.
// Dictionary-encoded VARCHAR vectors get a verdict per dictionary entry
// (one set probe per distinct value instead of one per row); a typed vector
// of the keys' kind probes the set in place; any other pair boxes the row's
// value and probes under Compare.
func compileIn(n *In, b *value.Batch) (triKernel, bool) {
	if n.set == nil {
		return nil, false
	}
	switch e := n.E.(type) {
	case *Literal:
		return constKernel(inVerdict(n, e.Val)), true
	case *ColRef:
		v, ok := colVec(e, b)
		if !ok {
			return nil, false
		}
		if v.Pruned {
			return constKernel(triNull), true
		}
		set := n.set
		switch {
		case v.Vals == nil && v.Codes != nil && v.Kind == value.KindVarchar:
			verdicts := make([]int8, len(v.Dict))
			for c, s := range v.Dict {
				verdicts[c] = inVerdict(n, value.Value{K: value.KindVarchar, S: s})
			}
			codes := v.Codes
			return func(i int) int8 {
				if v.Null(i) {
					return triNull
				}
				return verdicts[codes[i]]
			}, true
		case v.Vals == nil && set.Keys.Vals == nil && v.Kind == set.Keys.Kind:
			return func(i int) int8 {
				switch {
				case v.Null(i):
					return triNull
				case set.Find(v, i) >= 0:
					return triBool(!n.Negate)
				case set.HasNull:
					return triNull
				}
				return triBool(n.Negate)
			}, true
		}
		return func(i int) int8 { return inVerdict(n, v.Value(i)) }, true
	}
	return nil, false
}

// inVerdict is the membership verdict of a key set (which cannot fail) for
// one value.
func inVerdict(n *In, v value.Value) int8 {
	if v.IsNull() {
		return triNull
	}
	switch o, _ := n.set.FindValue(v); {
	case o >= 0:
		return triBool(!n.Negate)
	case n.set.HasNull:
		return triNull
	}
	return triBool(n.Negate)
}

// compileLike compiles `E [NOT] LIKE 'pattern'` for VARCHAR vectors with a
// literal pattern. Dictionary-encoded vectors match each distinct value
// once; materialized vectors match per row.
func compileLike(n *Like, b *value.Batch) (triKernel, bool) {
	pl, ok := n.Pattern.(*Literal)
	if !ok {
		return nil, false
	}
	if pl.Val.IsNull() {
		return constKernel(triNull), true
	}
	pat := pl.Val.String()
	neg := n.Negate
	switch e := n.E.(type) {
	case *Literal:
		if e.Val.IsNull() {
			return constKernel(triNull), true
		}
		return constKernel(triBool(likeMatch(e.Val.String(), pat) != neg)), true
	case *ColRef:
		v, ok := colVec(e, b)
		if !ok {
			return nil, false
		}
		if v.Pruned {
			return constKernel(triNull), true
		}
		if v.Vals != nil || v.Kind != value.KindVarchar {
			return nil, false
		}
		if v.Codes != nil {
			// An entry is matched the first time a row uses it (verdicts
			// holds verdict + 1, 0 = not yet): a dictionary larger than the
			// batch, a comment column's, is not matched whole per batch.
			verdicts := make([]int8, len(v.Dict))
			codes := v.Codes
			return func(i int) int8 {
				if v.Null(i) {
					return triNull
				}
				if c := codes[i]; verdicts[c] == 0 {
					verdicts[c] = triBool(likeMatch(v.Dict[c], pat) != neg) + 1
				}
				return verdicts[codes[i]] - 1
			}, true
		}
		strs := v.Strs
		return func(i int) int8 {
			if v.Null(i) {
				return triNull
			}
			return triBool(likeMatch(strs[i], pat) != neg)
		}, true
	}
	return nil, false
}

// EvalBatch evaluates e for every live row of b, returning a vector of
// b.Len() results. A bound column reference shares the batch's vector
// directly when the batch is unfiltered and gathers its live rows in their
// own form (value.GatherFrom) when it is filtered; everything else evaluates
// through e's reader (Readers) into a boxed vector, so results equal Eval's
// row by row. The first evaluation error aborts.
func EvalBatch(e Expr, b *value.Batch) (value.Vec, error) {
	if c, ok := e.(*ColRef); ok {
		if v, ok := colVec(c, b); ok && !v.Pruned {
			if b.Sel == nil {
				return *v, nil
			}
			out := value.Vec{Kind: v.Kind}
			value.GatherFrom(&out, []*value.Batch{b}, nil, b.Sel, c.Ord)
			return out, nil
		}
	}
	n := b.Len()
	out := value.Vec{Kind: value.KindNull, Vals: make([]value.Value, n)}
	read := Readers([]Expr{e}, b)[0]
	for k := 0; k < n; k++ {
		v, err := read(b.RowIndex(k))
		if err != nil {
			return value.Vec{}, err
		}
		out.Vals[k] = v
	}
	return out, nil
}
