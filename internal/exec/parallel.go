package exec

import (
	"context"
	"fmt"

	"hana/internal/expr"
	"hana/internal/value"
)

// This file holds the morsel-parallel hash aggregate and hash join. Both are
// deterministic by construction: the input is cut into
// fixed-size morsels whose boundaries depend only on the input length, every
// morsel produces a partial result on some worker, and the partials are
// combined in morsel-index order. The worker count only decides which
// goroutine computes a partial, never what the partial contains or where it
// lands in the merge — so parallelism 1 and parallelism N produce
// byte-identical output.

// ParallelHashAggregate groups by the bound GroupBy expressions and computes
// Aggs: the input is split into morsels, aggregated into per-morsel partial
// group tables on the pool's workers, and merged at a barrier in morsel
// order, so groups come out in the input's first-seen order. Out names the
// [group cols…, agg results…] output. With no group-by expressions it
// produces the single global group (even for empty input, per SQL). A nil
// Pool runs the morsels on one worker. benchmark/probes.go builds it from
// In, GroupBy, Aggs, Pool, Ctx and Width.
type ParallelHashAggregate struct {
	In      Rel
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Out     *value.Schema

	Pool  *Pool
	Ctx   context.Context
	Width int
	// MorselSize overrides DefaultMorselSize (tests); 0 = default.
	MorselSize int
	Stats      *Counters

	groups []value.Row // Next's state: Run's rows (never nil) once it ran
	next   int
}

// Run aggregates In and returns the finalised groups over Out.
func (h *ParallelHashAggregate) Run() (Rel, error) {
	merged, err := h.Partial()
	if err != nil {
		return Rel{}, err
	}
	rows, err := merged.Rows(h.Aggs, len(h.GroupBy) == 0)
	return Rel{Schema: h.Out, Rows: rows}, err
}

// Next returns Run's groups one at a time; benchmark/probes.go calls it.
func (h *ParallelHashAggregate) Next() (value.Row, bool, error) {
	if h.groups == nil {
		out, err := h.Run()
		if err != nil {
			return nil, false, err
		}
		h.groups = out.Rows
	}
	if h.next >= len(h.groups) {
		return nil, false, nil
	}
	h.next++
	return h.groups[h.next-1], true, nil
}

// Partial aggregates In and returns its merged, not yet finalised group
// table: Groups in the input's first-seen order, each First the ordinal of
// the group's first input row. A dist worker ships this as its shard's
// aggregate state; Run finalises the same table.
func (h *ParallelHashAggregate) Partial() (*AggPartial, error) {
	ctx := h.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	pool := h.Pool
	if pool == nil {
		pool = NewPool(1)
	}
	// The group keys, then one argument per aggregate (nil for COUNT(*)).
	es := make([]expr.Expr, 0, len(h.GroupBy)+len(h.Aggs))
	es = append(es, h.GroupBy...)
	for _, a := range h.Aggs {
		es = append(es, a.Arg)
	}
	offs := h.In.offsets()
	total := h.In.Len()
	size := h.MorselSize
	if size <= 0 {
		size = DefaultMorselSize
	}
	keyOrds := ordinals(len(h.GroupBy))

	nm := (total + size - 1) / size
	partials := make([]*AggPartial, nm)
	if nm > 0 {
		workers, err := pool.Run(ctx, nm, h.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, total)
			pt, err := aggregateMorsel(h.In.segments(offs, lo, hi), lo, es, h.Aggs, keyOrds)
			if err != nil {
				return err
			}
			partials[m] = pt
			return nil
		})
		if err != nil {
			return nil, err
		}
		h.Stats.NoteDispatch(nm, workers)
	}

	// Barrier: merge partial tables in morsel order. A group's first
	// appearance across morsels matches its first appearance in the input,
	// so the merged order equals the serial first-seen order.
	merged := NewAggPartial()
	for _, pt := range partials {
		merged.Merge(pt)
	}
	return merged, nil
}

// aggregateMorsel builds one morsel's partial group table, the one
// accumulation loop: over segments whose first row is input ordinal base,
// with es the len(keyOrds) group keys followed by one argument per aggregate
// (nil for COUNT(*)), read through each segment's readers.
func aggregateMorsel(segs []segment, base int, es []expr.Expr, aggs []AggSpec, keyOrds []int) (*AggPartial, error) {
	pt := NewAggPartial()
	// Scratch key buffer, reused across rows; only Clone() on a fresh group
	// retains the values.
	key := make(value.Row, len(keyOrds))
	for _, seg := range segs {
		rd := seg.readers(es)
		keyRd, argRd := rd[:len(key)], rd[len(key):]
		for k := seg.lo; k < seg.hi; k++ {
			i := seg.phys(k)
			for gi, read := range keyRd {
				v, err := read(i)
				if err != nil {
					return nil, err
				}
				key[gi] = v
			}
			hsh := key.Hash(keyOrds)
			var grp *AggGroup
			for _, g := range pt.table[hsh] {
				if key.EqualAt(g.Key, keyOrds, keyOrds) {
					grp = g
					break
				}
			}
			if grp == nil {
				grp = newAggGroup(key.Clone(), aggs, base)
				pt.insert(hsh, grp)
			}
			base++
			for ai, read := range argRd {
				st := grp.States[ai]
				if read == nil { // COUNT(*)
					st.Count++
					st.HasVal = true
					continue
				}
				v, err := read(i)
				if err != nil {
					return nil, err
				}
				st.Add(v)
			}
		}
	}
	return pt, nil
}

// HashJoinParallel executes a hash join of any JoinKind with
// morsel-parallel build and probe phases. A batch-backed side keeps late
// materialization through the join: keys are read from the vectors and only
// rows that reach the output are boxed. The build side is hashed into
// per-morsel partial tables holding row indices; probe morsels scan the
// partials in morsel order, so a probe row's matches come out in
// build-input order and probe outputs concatenate in probe-input order.
// residual is evaluated on the combined row: for inner joins it filters
// matches (a filter on the join's output), for left-outer joins it decides
// whether a build row counts as a match before null-extension. Semi and
// anti kinds emit left-schema rows, ignore rightWidth and take no
// residual. Row- and batch-backed sides produce byte-identical output:
// global row ordinals, key values, hashes and emission order are the same
// either way. benchmark/probes.go calls it with this signature.
func HashJoinParallel(ctx context.Context, pool *Pool, width, morselSize int, stats *Counters,
	kind JoinKind, left, right Rel, leftKeys, rightKeys []expr.Expr,
	residual expr.Expr, rightWidth int) ([]value.Row, error) {
	rows, _, err := HashJoinProbeOrdinals(ctx, pool, width, morselSize, stats, kind, left, right, leftKeys, rightKeys, residual, rightWidth)
	return rows, err
}

// HashJoinProbeOrdinals is HashJoinParallel that also returns, aligned with
// the joined rows, the ordinal in the left input of the probe row each one
// came from (ascending; repeated per match). A dist worker maps it to the
// probe row's global scan sequence.
func HashJoinProbeOrdinals(ctx context.Context, pool *Pool, width, morselSize int, stats *Counters,
	kind JoinKind, left, right Rel, leftKeys, rightKeys []expr.Expr,
	residual expr.Expr, rightWidth int) ([]value.Row, []int, error) {
	leftOnly := false
	switch kind {
	case JoinInner, JoinLeftOuter:
	case JoinSemi, JoinAnti, JoinAntiNullAware:
		if residual != nil {
			return nil, nil, fmt.Errorf("parallel hash join takes no residual on %s joins", kind)
		}
		leftOnly, rightWidth = true, 0
	default:
		return nil, nil, fmt.Errorf("parallel hash join does not support %s joins", kind)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if pool == nil {
		pool = NewPool(1)
	}
	size := morselSize
	if size <= 0 {
		size = DefaultMorselSize
	}

	lOffs, rOffs := left.offsets(), right.offsets()
	nLeft, nRight := left.Len(), right.Len()

	// Build phase: per-morsel hash tables of row indices plus the evaluated
	// key values (evaluated once, reused by every probe comparison), and
	// whether the morsel held a NULL key (NOT IN needs to know).
	type buildPartial struct {
		table   map[uint64][]int
		sawNull bool
	}
	rightVals := make([][]value.Value, nRight)
	nb := (nRight + size - 1) / size
	buildParts := make([]*buildPartial, nb)
	if nb > 0 {
		workers, err := pool.Run(ctx, nb, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nRight)
			bp := &buildPartial{table: map[uint64][]int{}}
			// One slab per morsel: the retained per-row key slices are carved
			// from it instead of allocating len(rightKeys) values per row.
			slab := make([]value.Value, (hi-lo)*len(rightKeys))
			ri := lo
			for _, seg := range right.segments(rOffs, lo, hi) {
				rd := seg.readers(rightKeys)
				for k := seg.lo; k < seg.hi; k, ri = k+1, ri+1 {
					vals := slab[:len(rightKeys):len(rightKeys)]
					slab = slab[len(rightKeys):]
					h, hasNull, err := readKeys(rd, seg.phys(k), vals)
					if err != nil {
						return err
					}
					if hasNull { // NULL keys never match
						bp.sawNull = true
						continue
					}
					rightVals[ri] = vals
					bp.table[h] = append(bp.table[h], ri)
				}
			}
			buildParts[m] = bp
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		stats.NoteDispatch(nb, workers)
	}
	buildNull := false
	for _, bp := range buildParts {
		buildNull = buildNull || bp.sawNull
	}

	// Probe phase: each morsel emits its combined rows independently;
	// outputs concatenate in morsel order. A probe row is boxed into an
	// output row only when a match, a null-extension or a semi/anti verdict
	// actually emits.
	np := (nLeft + size - 1) / size
	outs := make([][]value.Row, np)
	outOrds := make([][]int, np)
	if np > 0 {
		workers, err := pool.Run(ctx, np, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nLeft)
			// Probe rows emit at least no rows and usually about one; hi-lo
			// is the right capacity order. vals is scratch, reused per row —
			// matches copy from the row slices, never from vals. li is the
			// ordinal of the probe row in hand.
			out := make([]value.Row, 0, hi-lo)
			ords := make([]int, 0, hi-lo)
			vals := make([]value.Value, len(leftKeys))
			li := lo
			for _, seg := range left.segments(lOffs, lo, hi) {
				rd := seg.readers(leftKeys)
				for k := seg.lo; k < seg.hi; k, li = k+1, li+1 {
					i := seg.phys(k)
					h, hasNull, err := readKeys(rd, i, vals)
					if err != nil {
						return err
					}
					lw := seg.width(i)
					matched := false
					if !hasNull {
					scan:
						for _, bp := range buildParts {
							for _, ri := range bp.table[h] {
								if !keysEqual(vals, rightVals[ri]) {
									continue
								}
								if leftOnly { // one match decides a semi/anti join
									matched = true
									break scan
								}
								combined := make(value.Row, lw+rightWidth)
								seg.fill(i, combined[:lw])
								right.fillRow(ri, combined[lw:], rOffs)
								if residual != nil {
									keep, err := expr.Truthy(residual, combined)
									if err != nil {
										return err
									}
									if !keep {
										continue
									}
								}
								matched = true
								out = append(out, combined)
								ords = append(ords, li)
							}
						}
					}
					emit := false
					switch kind {
					case JoinLeftOuter, JoinAnti:
						emit = !matched
					case JoinSemi:
						emit = matched
					case JoinAntiNullAware:
						// NOT IN: a NULL build key leaves every non-match unknown,
						// and so does a NULL probe key unless the build side is empty.
						emit = !matched && !buildNull && (!hasNull || nRight == 0)
					}
					if emit {
						combined := make(value.Row, lw+rightWidth)
						seg.fill(i, combined[:lw])
						for c := lw; c < len(combined); c++ {
							combined[c] = value.Null
						}
						out = append(out, combined)
						ords = append(ords, li)
					}
				}
			}
			outs[m], outOrds[m] = out, ords
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		stats.NoteDispatch(np, workers)
	}

	n := 0
	for _, o := range outs {
		n += len(o)
	}
	joined := make([]value.Row, 0, n)
	ords := make([]int, 0, n)
	for m, o := range outs {
		joined = append(joined, o...)
		ords = append(ords, outOrds[m]...)
	}
	return joined, ords, nil
}

// readKeys reads physical row i's join keys through rd into vals and
// returns their hash; a NULL key stops the read, since it never matches.
func readKeys(rd []func(int) (value.Value, error), i int, vals []value.Value) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for k, read := range rd {
		v, err := read(i)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		vals[k] = v
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false, nil
}

// keysEqual compares a probe row's key values with a build row's.
func keysEqual(a, b []value.Value) bool {
	for k := range a {
		if value.Compare(a[k], b[k]) != 0 {
			return false
		}
	}
	return true
}
