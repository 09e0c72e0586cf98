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
	// A batch-backed input keeps its columnar form: the morsels below read
	// keys and arguments straight from the vectors.
	var (
		data = h.In.Rows
		bs   = h.In.Batches
		offs []int
		bpl  batchAggPlan
	)
	total := len(data)
	if bs != nil {
		offs = batchOffsets(bs)
		bpl = planBatchAgg(h.GroupBy, h.Aggs)
		total = offs[len(bs)]
	}
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
			hi := lo + size
			if hi > total {
				hi = total
			}
			var pt *AggPartial
			var err error
			if bs != nil {
				pt, err = aggregateBatchMorsel(batchSegments(bs, offs, lo, hi), lo, h.GroupBy, h.Aggs, keyOrds, bpl)
			} else {
				pt, err = aggregateMorsel(data[lo:hi], lo, h.GroupBy, h.Aggs, keyOrds)
			}
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

// aggregateMorsel builds one morsel's partial group table: the accumulation
// loop over a row range that starts at input ordinal base.
func aggregateMorsel(rows []value.Row, base int, groupBy []expr.Expr, aggs []AggSpec, keyOrds []int) (*AggPartial, error) {
	pt := NewAggPartial()
	// Scratch key buffer, reused across rows; only Clone() on a fresh group
	// retains the values.
	key := make(value.Row, len(groupBy))
	for ri, row := range rows {
		for i, g := range groupBy {
			v, err := g.Eval(row)
			if err != nil {
				return nil, err
			}
			key[i] = v
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
			grp = newAggGroup(key.Clone(), aggs, base+ri)
			pt.insert(hsh, grp)
		}
		for i, a := range aggs {
			if a.Arg == nil { // COUNT(*)
				grp.States[i].Count++
				grp.States[i].HasVal = true
				continue
			}
			v, err := a.Arg.Eval(row)
			if err != nil {
				return nil, err
			}
			grp.States[i].Add(v)
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

	var lOffs, rOffs []int
	if left.Batches != nil {
		lOffs = batchOffsets(left.Batches)
	}
	if right.Batches != nil {
		rOffs = batchOffsets(right.Batches)
	}
	lkp, rkp := planKeys(leftKeys), planKeys(rightKeys)
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
			hi := lo + size
			if hi > nRight {
				hi = nRight
			}
			bp := &buildPartial{table: map[uint64][]int{}}
			// One slab per morsel: the retained per-row key slices are carved
			// from it instead of allocating len(rightKeys) values per row.
			slab := make([]value.Value, (hi-lo)*len(rightKeys))
			if right.Batches != nil {
				var scratch value.Row
				i := lo
				for _, seg := range batchSegments(right.Batches, rOffs, lo, hi) {
					b := seg.b
					if rkp.needRow && len(scratch) < len(b.Cols) {
						scratch = make(value.Row, len(b.Cols))
					}
					for k := seg.lo; k < seg.hi; k++ {
						phys := b.RowIndex(k)
						if rkp.needRow {
							fillScratch(b, phys, scratch, rkp.fill)
						}
						vals := slab[:len(rightKeys):len(rightKeys)]
						slab = slab[len(rightKeys):]
						var h uint64 = 1469598103934665603
						hasNull := false
						for ki, ke := range rightKeys {
							var v value.Value
							if ord := rkp.cols[ki]; ord >= 0 && ord < len(b.Cols) {
								v = b.Cols[ord].Value(phys)
							} else {
								var err error
								if v, err = ke.Eval(scratch); err != nil {
									return err
								}
							}
							if v.IsNull() {
								hasNull = true
								break
							}
							vals[ki] = v
							h = h*1099511628211 ^ v.Hash()
						}
						if hasNull { // NULL keys never match
							bp.sawNull = true
						} else {
							rightVals[i] = vals
							bp.table[h] = append(bp.table[h], i)
						}
						i++
					}
				}
			} else {
				for i := lo; i < hi; i++ {
					vals := slab[:len(rightKeys):len(rightKeys)]
					slab = slab[len(rightKeys):]
					var h uint64 = 1469598103934665603
					hasNull := false
					for k, ke := range rightKeys {
						v, err := ke.Eval(right.Rows[i])
						if err != nil {
							return err
						}
						if v.IsNull() {
							hasNull = true
							break
						}
						vals[k] = v
						h = h*1099511628211 ^ v.Hash()
					}
					if hasNull {
						bp.sawNull = true // NULL keys never match
						continue
					}
					rightVals[i] = vals
					bp.table[h] = append(bp.table[h], i)
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
	// outputs concatenate in morsel order. probeMatches runs the shared
	// match-emit sequence once the probe row's hash and key values are
	// known; fillLeft boxes the probe row into an output row only when a
	// match, a null-extension or a semi/anti verdict actually emits.
	np := (nLeft + size - 1) / size
	outs := make([][]value.Row, np)
	outOrds := make([][]int, np)
	if np > 0 {
		workers, err := pool.Run(ctx, np, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := lo + size
			if hi > nLeft {
				hi = nLeft
			}
			// Probe rows emit at least no rows and usually about one; hi-lo
			// is the right capacity order. vals is scratch, reused per row —
			// matches copy from the row slices, never from vals. li is the
			// ordinal of the probe row in hand.
			out := make([]value.Row, 0, hi-lo)
			ords := make([]int, 0, hi-lo)
			li := lo
			vals := make([]value.Value, len(leftKeys))
			probeMatches := func(h uint64, hasNull bool, lw int, fillLeft func(dst value.Row)) error {
				matched := false
				if !hasNull {
				scan:
					for _, bp := range buildParts {
						for _, ri := range bp.table[h] {
							rv := rightVals[ri]
							eq := true
							for k := range vals {
								if value.Compare(vals[k], rv[k]) != 0 {
									eq = false
									break
								}
							}
							if !eq {
								continue
							}
							if leftOnly { // one match decides a semi/anti join
								matched = true
								break scan
							}
							combined := make(value.Row, lw+rightWidth)
							fillLeft(combined[:lw])
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
					fillLeft(combined[:lw])
					for i := lw; i < len(combined); i++ {
						combined[i] = value.Null
					}
					out = append(out, combined)
					ords = append(ords, li)
				}
				return nil
			}
			if left.Batches != nil {
				var scratch value.Row
				var fb *value.Batch // fillLeft captures fb/fphys, not loop vars
				var fphys int
				fillLeft := func(dst value.Row) { fb.FillRow(fphys, dst) }
				for _, seg := range batchSegments(left.Batches, lOffs, lo, hi) {
					b := seg.b
					if lkp.needRow && len(scratch) < len(b.Cols) {
						scratch = make(value.Row, len(b.Cols))
					}
					for k := seg.lo; k < seg.hi; k++ {
						phys := b.RowIndex(k)
						if lkp.needRow {
							fillScratch(b, phys, scratch, lkp.fill)
						}
						var h uint64 = 1469598103934665603
						hasNull := false
						for ki, ke := range leftKeys {
							var v value.Value
							if ord := lkp.cols[ki]; ord >= 0 && ord < len(b.Cols) {
								v = b.Cols[ord].Value(phys)
							} else {
								var err error
								if v, err = ke.Eval(scratch); err != nil {
									return err
								}
							}
							if v.IsNull() {
								hasNull = true
								break
							}
							vals[ki] = v
							h = h*1099511628211 ^ v.Hash()
						}
						fb, fphys = b, phys
						if err := probeMatches(h, hasNull, len(b.Cols), fillLeft); err != nil {
							return err
						}
						li++
					}
				}
			} else {
				var lrow value.Row // fillLeft captures lrow, not the loop var
				fillLeft := func(dst value.Row) { copy(dst, lrow) }
				for ; li < hi; li++ {
					l := left.Rows[li]
					var h uint64 = 1469598103934665603
					hasNull := false
					for k, ke := range leftKeys {
						v, err := ke.Eval(l)
						if err != nil {
							return err
						}
						if v.IsNull() {
							hasNull = true
							break
						}
						vals[k] = v
						h = h*1099511628211 ^ v.Hash()
					}
					lrow = l
					if err := probeMatches(h, hasNull, len(l), fillLeft); err != nil {
						return err
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
