package value

// Columnar batches: the unit of vectorized execution (ROADMAP item 2).
//
// A Batch carries a morsel's worth of rows in columnar form — one typed Vec
// per schema column plus a selection vector — so operators can evaluate
// predicates and aggregates over primitive arrays (and, for VARCHAR, over
// dictionary codes) instead of materialized Value rows. Batches are built
// per morsel, so the byte-identical-at-any-width determinism contract is
// unchanged: batch boundaries depend only on input size, and downstream
// merges still happen in morsel-index order.

// Vec is one typed column vector of a Batch. Exactly one payload family is
// populated, chosen by Kind:
//
//   - KindBool, KindInt, KindDate, KindTimestamp: Ints (the Value.I payload)
//   - KindDouble: Floats
//   - KindVarchar: either Strs (materialized), or Codes+Dict (dictionary
//     encoded, the compressed form handed up by the column store and by
//     extended storage, whose chunk dictionaries are not Sorted)
//   - any kind: Vals, the boxed escape hatch for a mixed-kind column, whose
//     values do not all match the declared kind (BatchFromRows), and for an
//     evaluated expression's results (expr.EvalBatch); no columnar store
//     hands it up. Kernels treat such vectors like rows, so nothing is
//     re-coerced and results stay byte-identical
//
// Nulls is a validity bitmap (bit i set = row i is NULL); nil means no row
// is NULL. Dict slices are shared with the owning store and must be treated
// as immutable; payload slices are either freshly decoded per batch or
// sliced from append-only store arrays whose visible prefix never mutates.
type Vec struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Codes  []uint32
	Dict   []string
	Vals   []Value  // boxed fallback; when non-nil all other payloads are unset
	Sorted bool     // Dict is sorted ascending (main-fragment dictionary)
	Nulls  []uint64 // validity bitmap; bit i set = NULL; nil = no nulls
	Pruned bool     // column dropped by late materialization; reads yield NULL
}

// Null reports whether row i of the vector is NULL.
func (v *Vec) Null(i int) bool {
	if v.Pruned {
		return true
	}
	if v.Vals != nil {
		return v.Vals[i].K == KindNull
	}
	if v.Nulls == nil {
		return false
	}
	w := i >> 6
	if w >= len(v.Nulls) {
		return false
	}
	return v.Nulls[w]&(1<<(uint(i)&63)) != 0
}

// SetNull marks row i NULL. EnsureNulls must have been called with a
// capacity covering i.
func (v *Vec) SetNull(i int) { v.Nulls[i>>6] |= 1 << (uint(i) & 63) }

// EnsureNulls allocates the validity bitmap for n rows if absent.
func (v *Vec) EnsureNulls(n int) {
	if v.Nulls == nil {
		v.Nulls = make([]uint64, (n+63)/64)
	}
}

// HasNulls reports whether any bit of the validity bitmap is set.
func (v *Vec) HasNulls() bool {
	for _, w := range v.Nulls {
		if w != 0 {
			return true
		}
	}
	return false
}

// Str returns the string payload of row i without boxing. Valid only for
// VARCHAR vectors with a non-NULL row i.
func (v *Vec) Str(i int) string {
	if v.Vals != nil {
		return v.Vals[i].S
	}
	if v.Dict != nil {
		return v.Dict[v.Codes[i]]
	}
	return v.Strs[i]
}

// Value boxes row i as a Value, exactly as the row-at-a-time store getters
// would: dictionary codes decode through the shared dictionary, integer-like
// kinds carry their payload in I. Pruned columns yield NULL.
func (v *Vec) Value(i int) Value {
	if v.Pruned {
		return Null
	}
	if v.Vals != nil {
		return v.Vals[i]
	}
	if v.Null(i) {
		return Null
	}
	switch v.Kind {
	case KindDouble:
		return Value{K: KindDouble, F: v.Floats[i]}
	case KindVarchar:
		return Value{K: KindVarchar, S: v.Str(i)}
	default:
		return Value{K: v.Kind, I: v.Ints[i]}
	}
}

// Batch is a columnar batch of N physical rows. Sel, when non-nil, lists the
// live physical row indices in ascending order (filtered batches keep their
// payload untouched and shrink the selection instead); a nil Sel means all
// N rows are live.
type Batch struct {
	Schema *Schema
	Cols   []Vec
	Sel    []int32
	N      int
}

// Len returns the number of live (selected) rows.
func (b *Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// RowIndex returns the physical row index of the k-th live row.
func (b *Batch) RowIndex(k int) int {
	if b.Sel != nil {
		return int(b.Sel[k])
	}
	return k
}

// FillRow materializes physical row i into dst, which must have
// len(b.Cols) capacity. It boxes every column, pruned ones as NULL.
func (b *Batch) FillRow(i int, dst Row) {
	for c := range b.Cols {
		dst[c] = b.Cols[c].Value(i)
	}
}

// MaterializeRows decodes every live row into freshly allocated Rows backed
// by a single Value slab (two allocations per batch, none per row). This is
// the late-materialization boundary: it runs only after predicates have
// shrunk the selection. Pruned columns are not written: the fresh slab's zero
// Values are already the NULLs they read as.
func (b *Batch) MaterializeRows() []Row {
	n := b.Len()
	w := len(b.Cols)
	rows := make([]Row, n)
	slab := make([]Value, n*w)
	live := make([]int, 0, w)
	for c := range b.Cols {
		if !b.Cols[c].Pruned {
			live = append(live, c)
		}
	}
	for k := 0; k < n; k++ {
		r := slab[k*w : (k+1)*w : (k+1)*w]
		i := b.RowIndex(k)
		for _, c := range live {
			r[c] = b.Cols[c].Value(i)
		}
		rows[k] = r
	}
	return rows
}

// BatchFromRows builds a fully materialized batch from rows, each column
// written by Vec.Set: integer-like and double kinds land in primitive
// arrays, VARCHAR stays as Strs (no dictionary), NULLs set validity bits,
// and a column whose values do not all carry the declared kind is boxed so
// nothing is re-coerced. Row stores and exec.RowRel use it to enter the
// vectorized path. needed, when non-nil, marks the column ordinals the
// consumer reads, as it does for the stores' ReadBatch: the others are not
// transposed and become pruned vectors that read as NULL.
func BatchFromRows(schema *Schema, rows []Row, needed []bool) *Batch {
	n := len(rows)
	b := &Batch{Schema: schema, Cols: make([]Vec, len(schema.Cols)), N: n}
	for c := range schema.Cols {
		if needed != nil && (c >= len(needed) || !needed[c]) {
			b.Cols[c] = Vec{Kind: schema.Cols[c].Kind, Pruned: true}
			continue
		}
		v := &b.Cols[c]
		*v = NewVec(schema.Cols[c].Kind, n)
		for i := 0; i < n; i++ {
			v.Set(i, rows[i][c])
		}
	}
	return b
}

// NewVec returns a vector of kind k with room for n rows, all zero, for
// Set to fill: Ints, Floats or Strs by kind, and a NULL kind's boxed Vals.
func NewVec(k Kind, n int) Vec {
	switch k {
	case KindNull:
		return Vec{Kind: k, Vals: make([]Value, n)}
	case KindDouble:
		return Vec{Kind: k, Floats: make([]float64, n)}
	case KindVarchar:
		return Vec{Kind: k, Strs: make([]string, n)}
	}
	return Vec{Kind: k, Ints: make([]int64, n)}
}

// Set writes x at row i of a vector NewVec made: the one writer of boxed
// values into typed vectors, shared by BatchFromRows and the aggregate's
// output. A value of the vector's kind lands in its payload and a NULL sets
// its validity bit; the first value of another kind boxes the vector (the
// rows before it read back as Values), so nothing is re-coerced.
func (v *Vec) Set(i int, x Value) {
	switch {
	case x.K != v.Kind || v.Vals != nil:
		v.setOther(i, x)
	case x.K == KindDouble:
		v.Floats[i] = x.F
	case x.K == KindVarchar:
		v.Strs[i] = x.S
	default:
		v.Ints[i] = x.I
	}
}

func (v *Vec) setOther(i int, x Value) {
	n := max(len(v.Ints), len(v.Floats), len(v.Strs), len(v.Vals))
	switch {
	case v.Vals != nil:
	case x.K == KindNull:
		v.EnsureNulls(n)
		v.SetNull(i)
		return
	default:
		vals := make([]Value, n)
		for k := 0; k < i; k++ {
			vals[k] = v.Value(k)
		}
		v.Ints, v.Floats, v.Strs, v.Nulls, v.Vals = nil, nil, nil, nil, vals
	}
	v.Vals[i] = x
}

// GatherFrom fills dst, whose Kind is set, with column c of rows of several
// batches in any order: row k of dst is physical row rows[k] of
// bs[from[k]] (of bs[0] when from is nil), a negative row reading NULL. It
// is the one typed copy out of vectors, which the hash join's output, the
// sort's output, a filtered column's projection and the coordinator's merge
// share. Integer kinds land in Ints and DOUBLE in Floats as they are;
// VARCHAR in Strs whose headers point at the source strings (a dictionary's
// entries are not copied). A column any batch holds boxed, or of another
// kind, comes out boxed, so nothing is re-coerced. When every batch's column
// is pruned (or there is no batch) dst stays pruned, reading NULL, and
// nothing is copied. NULLs set validity bits.
func GatherFrom(dst *Vec, bs []*Batch, from, rows []int32, c int) {
	pruned, boxed := true, false
	for _, b := range bs {
		src := &b.Cols[c]
		pruned = pruned && src.Pruned
		boxed = boxed || !src.Pruned && (src.Vals != nil || src.Kind != dst.Kind)
	}
	n := len(rows)
	switch {
	case pruned:
		dst.Pruned = true
	case boxed:
		dst.Vals = make([]Value, n)
		for k, i := range rows {
			if i >= 0 {
				dst.Vals[k] = bs[batchOf(from, k)].Cols[c].Value(int(i))
			}
		}
	case dst.Kind == KindDouble:
		dst.Floats = make([]float64, n)
		gatherFrom(dst, dst.Floats, bs, from, rows, c, func(v *Vec) []float64 { return v.Floats }, nil)
	case dst.Kind == KindVarchar:
		dst.Strs = make([]string, n)
		gatherFrom(dst, dst.Strs, bs, from, rows, c, func(v *Vec) []string { return v.Strs }, (*Vec).Str)
	default:
		dst.Ints = make([]int64, n)
		gatherFrom(dst, dst.Ints, bs, from, rows, c, func(v *Vec) []int64 { return v.Ints }, nil)
	}
}

// batchOf is the batch GatherFrom's row k reads.
func batchOf(from []int32, k int) int32 {
	if from == nil {
		return 0
	}
	return from[k]
}

// gatherFrom copies GatherFrom's rows out of the payload slice each batch's
// column holds into out, through get where it holds none (a dictionary),
// and sets dst's validity bit for each NULL.
func gatherFrom[T int64 | float64 | string](dst *Vec, out []T, bs []*Batch, from, rows []int32, c int, payload func(*Vec) []T, get func(*Vec, int) T) {
	data, nulls := make([][]T, len(bs)), false
	for b := range bs {
		src := &bs[b].Cols[c]
		data[b], nulls = payload(src), nulls || src.Nulls != nil || src.Pruned
	}
	for k, i := range rows {
		switch b := batchOf(from, k); {
		case i < 0 || nulls && bs[b].Cols[c].Null(int(i)):
			dst.EnsureNulls(len(rows))
			dst.SetNull(k)
		case data[b] != nil:
			out[k] = data[b][i]
		default:
			out[k] = get(&bs[b].Cols[c], int(i))
		}
	}
}
