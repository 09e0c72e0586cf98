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

// BatchFromRows builds a fully materialized batch from rows: integer-like
// and double kinds land in primitive arrays, VARCHAR stays as Strs (no
// dictionary). Row stores and remote sources use it to enter the vectorized
// path. NULLs set validity bits. A column whose values do not all carry the
// declared kind switches to the boxed Vals form so nothing is re-coerced.
// needed, when non-nil, marks the column ordinals the consumer reads, as it
// does for the stores' ReadBatch: the others are not transposed and become
// pruned vectors that read as NULL.
func BatchFromRows(schema *Schema, rows []Row, needed []bool) *Batch {
	n := len(rows)
	b := &Batch{Schema: schema, Cols: make([]Vec, len(schema.Cols)), N: n}
	for c := range schema.Cols {
		v := &b.Cols[c]
		v.Kind = schema.Cols[c].Kind
		if needed != nil && (c >= len(needed) || !needed[c]) {
			v.Pruned = true
			continue
		}
		switch v.Kind {
		case KindDouble:
			v.Floats = make([]float64, n)
		case KindVarchar:
			v.Strs = make([]string, n)
		default:
			v.Ints = make([]int64, n)
		}
		for i := 0; i < n; i++ {
			x := rows[i][c]
			if x.K == KindNull {
				v.EnsureNulls(n)
				v.SetNull(i)
				continue
			}
			if x.K != v.Kind {
				boxColumn(v, rows, c, n)
				break
			}
			switch v.Kind {
			case KindDouble:
				v.Floats[i] = x.F
			case KindVarchar:
				v.Strs[i] = x.S
			default:
				v.Ints[i] = x.I
			}
		}
	}
	return b
}

// boxColumn rewrites column c of the batch into boxed form, copying the
// stored values verbatim.
func boxColumn(v *Vec, rows []Row, c, n int) {
	v.Ints, v.Floats, v.Strs, v.Nulls = nil, nil, nil, nil
	v.Vals = make([]Value, n)
	for i := 0; i < n; i++ {
		v.Vals[i] = rows[i][c]
	}
}

// Run is one stretch of a gather's input: rows of batch B in order — the
// physical rows Rows lists, a negative entry reading NULL, or, when Rows is
// nil, physical rows [Lo, Hi).
type Run struct {
	B      *Batch
	Rows   []int32
	Lo, Hi int
}

// Run is the gather run of the batch's live rows [lo, hi).
func (b *Batch) Run(lo, hi int) Run {
	if b.Sel != nil {
		return Run{B: b, Rows: b.Sel[lo:hi]}
	}
	return Run{B: b, Lo: lo, Hi: hi}
}

// Len is the run's row count.
func (r Run) Len() int {
	if r.Rows != nil {
		return len(r.Rows)
	}
	return r.Hi - r.Lo
}

func (r Run) at(k int) int {
	if r.Rows != nil {
		return int(r.Rows[k])
	}
	return r.Lo + k
}

// Gather fills dst, whose Kind is set, with column c of the runs' n rows in
// order: the one typed copy out of vectors, which the hash join's output and
// the coordinator's merge share. Integer kinds land in Ints and DOUBLE in
// Floats as they are; VARCHAR in Strs whose headers point at the source
// strings (a dictionary's entries are not copied). A column any run holds
// boxed, or of another kind, comes out boxed, so nothing is re-coerced. A
// pruned source reads NULL, and when every source is pruned dst stays
// pruned and nothing is copied. NULLs set validity bits.
func Gather(dst *Vec, runs []Run, c, n int) {
	pruned, boxed := true, false
	for _, r := range runs {
		src := &r.B.Cols[c]
		pruned = pruned && src.Pruned
		boxed = boxed || !src.Pruned && (src.Vals != nil || src.Kind != dst.Kind)
	}
	switch {
	case pruned:
		dst.Pruned = true
	case boxed:
		dst.Vals = make([]Value, n)
		gatherPayload(dst, dst.Vals, runs, c, n, func(v *Vec) []Value { return v.Vals }, (*Vec).Value)
		dst.Nulls = nil // a boxed NULL is its Value
	case dst.Kind == KindDouble:
		dst.Floats = make([]float64, n)
		gatherPayload(dst, dst.Floats, runs, c, n, func(v *Vec) []float64 { return v.Floats }, nil)
	case dst.Kind == KindVarchar:
		dst.Strs = make([]string, n)
		gatherPayload(dst, dst.Strs, runs, c, n, func(v *Vec) []string { return v.Strs }, (*Vec).Str)
	default:
		dst.Ints = make([]int64, n)
		gatherPayload(dst, dst.Ints, runs, c, n, func(v *Vec) []int64 { return v.Ints }, nil)
	}
}

// gatherPayload copies column c of the runs' rows out of the payload slice
// each source holds into out, through get where a source holds none (a
// dictionary, another kind), and sets dst's validity bit for each NULL: a
// run without listed rows over a source without NULLs is one copy.
func gatherPayload[T int64 | float64 | string | Value](dst *Vec, out []T, runs []Run, c, n int, payload func(*Vec) []T, get func(*Vec, int) T) {
	o := 0
	for _, r := range runs {
		src, m := &r.B.Cols[c], r.Len()
		data := payload(src)
		if r.Rows == nil && data != nil && src.Nulls == nil {
			o += copy(out[o:o+m], data[r.Lo:r.Hi])
			continue
		}
		nulls := src.Nulls != nil || src.Pruned
		for k := 0; k < m; k, o = k+1, o+1 {
			switch i := r.at(k); {
			case i < 0 || nulls && src.Null(i):
				dst.EnsureNulls(n)
				dst.SetNull(o)
			case data != nil:
				out[o] = data[i]
			default:
				out[o] = get(src, i)
			}
		}
	}
}

// GatherFrom is Gather over rows of several batches in any order, a hash
// join's build side: row k of dst is physical row rows[k] of bs[from[k]],
// a negative row reading NULL. dst comes out pruned, boxed or typed as
// Gather has it over runs of all of bs.
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
				dst.Vals[k] = bs[from[k]].Cols[c].Value(int(i))
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
		b := from[k]
		switch {
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
