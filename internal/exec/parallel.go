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

	// A row-backed input is read a morsel at a time as one batch of the
	// columns es read, so the morsel body has one input form.
	var needed []bool
	if h.In.Batches == nil {
		if ords := expr.FillOrds(es); ords != nil {
			needed = make([]bool, h.In.Schema.Len())
			for _, o := range ords {
				if o < len(needed) {
					needed[o] = true
				}
			}
		}
	}

	nm := (total + size - 1) / size
	partials := make([]*AggPartial, nm)
	if nm > 0 {
		workers, err := pool.Run(ctx, nm, h.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, total)
			var segs []segment
			if h.In.Batches == nil {
				segs = []segment{{b: value.BatchFromRows(h.In.Schema, h.In.Rows[lo:hi], needed), lo: 0, hi: hi - lo}}
			} else {
				segs = h.In.segments(offs, lo, hi)
			}
			pt, err := aggregateMorsel(segs, lo, es, h.Aggs, len(h.GroupBy))
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
	merged := &AggPartial{}
	for _, pt := range partials {
		merged.Merge(pt)
	}
	return merged, nil
}

// HashJoin executes a hash join of any JoinKind with morsel-parallel build
// and probe phases. It returns a relation over left's columns and right's
// (left's alone for the semi and anti kinds), one batch per probe morsel
// that emits, and, aligned with its rows, the ordinal in left of each one's
// probe row, which a dist worker maps to the row's scan sequence. One table
// chains each hash's build rows in build-input order, so a probe row's
// matches come out in that order. A probe morsel records (probe row, build
// row) pairs, then gathers each output column once into a typed vector
// (value.Gather): a column pruned on its input stays pruned, and a
// null-extended row reads NULL on the right. residual, checked per match on
// one scratch row per morsel filled where it reads, filters an inner join's
// matches and decides a left-outer join's; the semi and anti kinds take
// none. A row-backed side is transposed into one batch first. The output
// does not depend on a side's form or the pool's width.
func HashJoin(ctx context.Context, pool *Pool, width, morselSize int, stats *Counters,
	kind JoinKind, left, right Rel, leftKeys, rightKeys []expr.Expr, residual expr.Expr) (Rel, []int, error) {
	out, leftOnly := left.Schema, true
	switch kind {
	case JoinInner, JoinLeftOuter:
		out, leftOnly = left.Schema.Concat(right.Schema), false
	case JoinSemi, JoinAnti, JoinAntiNullAware:
		if residual != nil {
			return Rel{}, nil, fmt.Errorf("parallel hash join takes no residual on %s joins", kind)
		}
	default:
		return Rel{}, nil, fmt.Errorf("parallel hash join does not support %s joins", kind)
	}
	if pool == nil {
		pool = NewPool(1)
	}
	size := morselSize
	if size <= 0 {
		size = DefaultMorselSize
	}
	if left.Batches == nil {
		left = Rel{Schema: left.Schema, Batches: []*value.Batch{left.whole()}}
	}
	build := right.whole()
	right = Rel{Schema: right.Schema, Batches: []*value.Batch{build}}
	lw := left.Schema.Len()

	lOffs, rOffs := left.offsets(), right.offsets()
	nLeft, nRight := left.Len(), right.Len()

	// Build phase: morsels read each row's keys once and hash; a NULL key,
	// which never matches, marks its row -1 in next. linkBuild then indexes
	// the distinct keys and chains their rows in build order.
	nk := len(rightKeys)
	keys := make([]value.Value, nRight*nk)
	hashes, next := make([]uint64, nRight), make([]int32, nRight)
	nb := (nRight + size - 1) / size
	if nb > 0 {
		workers, err := pool.Run(ctx, nb, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nRight)
			ri := lo
			for _, seg := range right.segments(rOffs, lo, hi) {
				rd := expr.Readers(rightKeys, seg.b)
				for k := seg.lo; k < seg.hi; k, ri = k+1, ri+1 {
					h, hasNull, err := readKeys(rd, seg.phys(k), keys[ri*nk:(ri+1)*nk])
					if err != nil {
						return err
					}
					if hashes[ri] = h; hasNull {
						next[ri] = -1
					}
				}
			}
			return nil
		})
		if err != nil {
			return Rel{}, nil, err
		}
		stats.NoteDispatch(nb, workers)
	}
	index, first, buildNull := linkBuild(keys, hashes, next, nk)

	// The residual's scratch row is filled only where it reads.
	fill := expr.FillOrds([]expr.Expr{residual})
	if fill == nil {
		fill = make([]int, out.Len())
		for i := range fill {
			fill[i] = i
		}
	}

	// Probe phase: each morsel records its pairs and gathers its batch;
	// outputs concatenate in morsel order.
	np := (nLeft + size - 1) / size
	outs := make([]*value.Batch, np)
	outOrds := make([][]int, np)
	if np > 0 {
		workers, err := pool.Run(ctx, np, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nLeft)
			segs := left.segments(lOffs, lo, hi)
			// probe and bld are the pairs' physical rows (bld -1 =
			// null-extended), about one per probe row; ends[s] ends segment
			// s's pairs; li is the ordinal of the probe row in hand.
			probe, bld := make([]int32, 0, hi-lo), make([]int32, 0, hi-lo)
			ords, ends := make([]int, 0, hi-lo), make([]int, len(segs))
			vals := make([]value.Value, len(leftKeys))
			var scratch value.Row
			if residual != nil {
				scratch = make(value.Row, out.Len())
			}
			li := lo
			for s, seg := range segs {
				rd := expr.Readers(leftKeys, seg.b)
				for k := seg.lo; k < seg.hi; k, li = k+1, li+1 {
					i := seg.phys(k)
					h, hasNull, err := readKeys(rd, i, vals)
					if err != nil {
						return err
					}
					matched := false
					e := -1
					if !hasNull {
						e, _ = findKey(index, h, vals, keys, first)
					}
					if e >= 0 {
						for ri := int(first[e]); ri >= 0; ri = int(next[ri]) - 1 {
							if leftOnly { // one match decides a semi/anti join
								matched = true
								break
							}
							j := build.RowIndex(ri)
							if residual != nil {
								for _, o := range fill {
									if o < lw {
										scratch[o] = seg.b.Cols[o].Value(i)
									} else if o < len(scratch) {
										scratch[o] = build.Cols[o-lw].Value(j)
									}
								}
								keep, err := expr.Truthy(residual, scratch)
								if err != nil {
									return err
								}
								if !keep {
									continue
								}
							}
							matched = true
							probe, bld, ords = append(probe, int32(i)), append(bld, int32(j)), append(ords, li)
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
						probe, bld, ords = append(probe, int32(i)), append(bld, -1), append(ords, li)
					}
				}
				ends[s] = len(probe)
			}
			if len(probe) == 0 {
				return nil
			}
			// Gather the output: the left columns from the segments' batches
			// at the probe rows, the right ones from build at the bld rows.
			b := &value.Batch{Schema: out, Cols: make([]value.Vec, out.Len()), N: len(probe)}
			runs, from := make([]value.Run, len(segs)), 0
			for s, seg := range segs {
				runs[s], from = value.Run{B: seg.b, Rows: probe[from:ends[s]]}, ends[s]
			}
			for c := range b.Cols {
				b.Cols[c].Kind = out.Cols[c].Kind
				if c < lw {
					value.Gather(&b.Cols[c], runs, c, b.N)
				} else {
					value.Gather(&b.Cols[c], []value.Run{{B: build, Rows: bld}}, c-lw, b.N)
				}
			}
			outs[m], outOrds[m] = b, ords
			return nil
		})
		if err != nil {
			return Rel{}, nil, err
		}
		stats.NoteDispatch(np, workers)
	}

	joined := Rel{Schema: out, Batches: make([]*value.Batch, 0, np)}
	var ords []int
	for m, b := range outs {
		if b != nil {
			joined.Batches = append(joined.Batches, b)
			ords = append(ords, outOrds[m]...)
		}
	}
	return joined, ords, nil
}

// HashJoinParallel is HashJoin with its output boxed into rows. It is kept
// only for benchmark/probes.go, whose sides carry no Schema (widths and
// kinds are taken from their batches) and which passes rightWidth;
// ROADMAP item 13(d) deletes it.
func HashJoinParallel(ctx context.Context, pool *Pool, width, morselSize int, stats *Counters,
	kind JoinKind, left, right Rel, leftKeys, rightKeys []expr.Expr,
	residual expr.Expr, _ int) ([]value.Row, error) {
	for _, r := range []*Rel{&left, &right} {
		if r.Schema == nil {
			r.Schema = &value.Schema{}
			if len(r.Batches) > 0 {
				for _, v := range r.Batches[0].Cols {
					r.Schema.Cols = append(r.Schema.Cols, value.Column{Kind: v.Kind})
				}
			}
		}
	}
	out, _, err := HashJoin(ctx, pool, width, morselSize, stats, kind, left, right, leftKeys, rightKeys, residual)
	return out.AllRows(), err
}

// readKeys reads physical row i's join keys through rd into vals and
// returns their hash; a NULL key stops the read, since it never matches.
func readKeys(rd []func(int) (value.Value, error), i int, vals []value.Value) (uint64, bool, error) {
	h := value.KeyHashSeed
	for k, read := range rd {
		v, err := read(i)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		vals[k] = v
		h = value.KeyHashStep(h, v.Hash())
	}
	return h, false, nil
}

// linkBuild indexes the distinct keys of the build rows (nk values of keys
// and one of hashes a row) but those whose next is -1, a NULL key, which
// buildNull reports: first[e] is the first row with entry e's key and
// next[ri] becomes the next row with ri's key + 1 (0 ends the chain).
func linkBuild(keys []value.Value, hashes []uint64, next []int32, nk int) (index value.Index, first []int32, buildNull bool) {
	index, first = value.NewIndex(len(next)), make([]int32, 0, len(next))
	for ri := len(next) - 1; ri >= 0; ri-- {
		if next[ri] < 0 {
			buildNull = true
			continue
		}
		e, w := findKey(index, hashes[ri], keys[ri*nk:(ri+1)*nk], keys, first)
		if e < 0 {
			e = index.Insert(w)
			first = append(first, -1)
		}
		next[ri], first[e] = first[e]+1, int32(ri)
	}
	return index, first, buildNull
}

// findKey returns the entry whose key, build row first[e]'s, equals key
// under hash h, or -1 and the walk Insert takes.
func findKey(index value.Index, h uint64, key, keys []value.Value, first []int32) (int, value.Probe) {
	nk := len(key)
	w := index.Probe(h)
	for e := index.Next(&w); e >= 0; e = index.Next(&w) {
		if r := int(first[e]) * nk; value.KeysEqual(key, keys[r:r+nk]) {
			return e, w
		}
	}
	return -1, w
}
