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
	return merged.Finalize(h.Out, h.Aggs, len(h.GroupBy) == 0)
}

// Next returns Run's groups one at a time, boxed; benchmark/probes.go calls
// it.
func (h *ParallelHashAggregate) Next() (value.Row, bool, error) {
	if h.groups == nil {
		out, err := h.Run()
		if err != nil {
			return nil, false, err
		}
		h.groups = out.AllRows()
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

	nm := (total + size - 1) / size
	partials := make([]*AggPartial, nm)
	if nm > 0 {
		workers, err := pool.Run(ctx, nm, h.Width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, total)
			pt, err := aggregateMorsel(h.In.segments(offs, lo, hi), lo, es, h.Aggs, len(h.GroupBy))
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
// matches come out in that order. Build rows are indexed as (batch, row) of
// right's batches, which are not copied. Both phases hash a segment's keys
// column by column from their vectors (value.HashVec) and confirm a
// candidate by comparing the two rows' keys in place (value.VecEqual); a
// key that is not a bare column is read through its reader into a boxed
// vector first. With no keys every row hashes alike and one chain holds
// the whole build side: the nested-loop join, its matches decided by the
// residual alone. A probe morsel records (probe row, build row) pairs,
// checking ctx every DefaultMorselSize pairs, then gathers each output
// column once into a typed vector (value.GatherFrom): a column pruned on
// its input stays pruned, and a null-extended row reads NULL on the right.
// residual, checked per match on one scratch row per morsel filled where it
// reads, filters an inner join's matches and decides a left-outer join's;
// the semi and anti kinds take none. The output does not depend on the
// pool's width.
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
	lw := left.Schema.Len()

	lOffs, rOffs := left.offsets(), right.offsets()
	nLeft, nRight := left.Len(), right.Len()

	// Build phase: morsels hash each row's keys and record where it lives;
	// a NULL key, which never matches, marks its row -1 in next. link then
	// indexes the distinct keys and chains their rows in build order.
	bld := &buildSide{batches: right.Batches, keys: make([][]*value.Vec, len(right.Batches)),
		bat: make([]int32, nRight), row: make([]int32, nRight)}
	for bi, b := range right.Batches {
		bld.keys[bi] = keyVecs(rightKeys, b)
	}
	hashes, next := make([]uint64, nRight), make([]int32, nRight)
	nb := (nRight + size - 1) / size
	if nb > 0 {
		workers, err := pool.Run(ctx, nb, width, func(_ context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nRight)
			ri, buf := lo, make([]int32, hi-lo)
			for _, seg := range right.segments(rOffs, lo, hi) {
				bi := batchIndexOf(rOffs, ri)
				rows := seg.physRows(buf)
				n := len(rows)
				if err := hashKeys(rightKeys, seg.b, bld.keys[bi], rows, hashes[ri:ri+n], next[ri:ri+n]); err != nil {
					return err
				}
				for k, i := range rows {
					bld.bat[ri+k], bld.row[ri+k] = int32(bi), i
				}
				ri += n
			}
			return nil
		})
		if err != nil {
			return Rel{}, nil, err
		}
		stats.NoteDispatch(nb, workers)
	}
	buildNull := bld.link(hashes, next)

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
		workers, err := pool.Run(ctx, np, width, func(ctx context.Context, m int) error {
			lo := m * size
			hi := min(lo+size, nLeft)
			segs := left.segments(lOffs, lo, hi)
			// The pairs: probe row probe of segment seg's batch, build row row
			// of batch bat (row -1 = null-extended), about one per probe row;
			// li is the ordinal of the probe row in hand, pairs counts toward
			// the next ctx check.
			seg, probe := make([]int32, 0, hi-lo), make([]int32, 0, hi-lo)
			bat, row, ords := make([]int32, 0, hi-lo), make([]int32, 0, hi-lo), make([]int, 0, hi-lo)
			sb := make([]*value.Batch, len(segs))
			buf, hs, nul := make([]int32, hi-lo), make([]uint64, hi-lo), make([]int32, hi-lo)
			var scratch value.Row
			if residual != nil {
				scratch = make(value.Row, out.Len())
			}
			li, pairs := lo, 0
			for s, sg := range segs {
				sb[s] = sg.b
				rows := sg.physRows(buf)
				vecs := keyVecs(leftKeys, sg.b)
				if err := hashKeys(leftKeys, sg.b, vecs, rows, hs, nul); err != nil {
					return err
				}
				for k, i := range rows {
					hasNull := nul[k] < 0
					matched := false
					e := -1
					if !hasNull {
						e = bld.find(hs[k], vecs, int(i))
					}
					if e >= 0 {
						for ri := int(bld.first[e]); ri >= 0; ri = int(next[ri]) - 1 {
							if leftOnly { // one match decides a semi/anti join
								matched = true
								break
							}
							if pairs++; pairs == DefaultMorselSize {
								if err := ctx.Err(); err != nil {
									return err
								}
								pairs = 0
							}
							bi, j := bld.bat[ri], bld.row[ri]
							if residual != nil {
								for _, o := range fill {
									if o < lw {
										scratch[o] = sg.b.Cols[o].Value(int(i))
									} else if o < len(scratch) {
										scratch[o] = bld.batches[bi].Cols[o-lw].Value(int(j))
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
							seg, probe = append(seg, int32(s)), append(probe, i)
							bat, row, ords = append(bat, bi), append(row, j), append(ords, li)
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
						seg, probe = append(seg, int32(s)), append(probe, i)
						bat, row, ords = append(bat, 0), append(row, -1), append(ords, li)
					}
					li++
				}
			}
			if len(probe) == 0 {
				return nil
			}
			// Gather the output: the left columns from the segments' batches
			// at the probe rows, the right ones from the build batches.
			b := &value.Batch{Schema: out, Cols: make([]value.Vec, out.Len()), N: len(probe)}
			for c := range b.Cols {
				b.Cols[c].Kind = out.Cols[c].Kind
				if c < lw {
					value.GatherFrom(&b.Cols[c], sb, seg, probe, c)
				} else {
					value.GatherFrom(&b.Cols[c], bld.batches, bat, row, c-lw)
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

// keyVecs returns the vectors a side's join keys read over batch b: a bare
// column's own vector (bareCol), or a boxed vector of b's length that
// hashKeys fills through the key's reader.
func keyVecs(keys []expr.Expr, b *value.Batch) []*value.Vec {
	vecs := make([]*value.Vec, len(keys))
	for c, e := range keys {
		if vecs[c] = bareCol(e, b); vecs[c] == nil {
			vecs[c] = &value.Vec{Kind: value.KindNull, Vals: make([]value.Value, b.N)}
		}
	}
	return vecs
}

// bareCol returns the vector of b a bare column reference e reads in place,
// in whatever form it holds, or nil.
func bareCol(e expr.Expr, b *value.Batch) *value.Vec {
	if c, ok := e.(*expr.ColRef); ok && c.Ord >= 0 && c.Ord < len(b.Cols) {
		return &b.Cols[c.Ord]
	}
	return nil
}

// hashKeys hashes the join keys of rows, physical rows of b whose key
// vectors are vecs (keyVecs), into hs column by column, and sets null[k] to
// -1 for each row with a NULL key, which never matches, 0 otherwise. A key
// that is not a bare column is read first, a row at a time in key order: a
// row's reads stop at its first NULL key, and the first read that fails
// ends the call.
func hashKeys(keys []expr.Expr, b *value.Batch, vecs []*value.Vec, rows []int32, hs []uint64, null []int32) error {
	hs, null = hs[:len(rows)], null[:len(rows)]
	for k := range hs {
		hs[k], null[k] = value.KeyHashSeed, 0
	}
	var need []expr.Expr
	for c, e := range keys {
		if bareCol(e, b) == nil {
			if need == nil {
				need = make([]expr.Expr, len(keys))
			}
			need[c] = e
		}
	}
	if need != nil {
		rd := expr.Readers(need, b)
		for _, i := range rows {
			for c, v := range vecs {
				if rd[c] == nil {
					if v.Null(int(i)) {
						break
					}
					continue
				}
				x, err := rd[c](int(i))
				if err != nil {
					return err
				}
				if v.Vals[i] = x; x.IsNull() {
					break
				}
			}
		}
	}
	for _, v := range vecs {
		value.HashVec(hs, v, rows, nil)
		if v.Nulls != nil || v.Vals != nil || v.Pruned {
			for k, i := range rows {
				if v.Null(int(i)) {
					null[k] = -1
				}
			}
		}
	}
	return nil
}

// buildSide is the hash join's build input: right's batches, each one's
// key vectors, where build row ri lives (physical row row[ri] of batch
// bat[ri]), and, once linked, the index of its distinct keys, entry e's
// first row being first[e].
type buildSide struct {
	batches  []*value.Batch
	keys     [][]*value.Vec
	bat, row []int32
	index    value.Index
	first    []int32
}

// equal reports whether build row ri's keys equal physical row i of vecs.
func (s *buildSide) equal(ri int, vecs []*value.Vec, i int) bool {
	bk, j := s.keys[s.bat[ri]], int(s.row[ri])
	for c, v := range vecs {
		if !value.VecEqual(v, i, bk[c], j) {
			return false
		}
	}
	return true
}

// find returns the entry whose key equals physical row i of vecs under
// hash h, or -1.
func (s *buildSide) find(h uint64, vecs []*value.Vec, i int) int {
	w := s.index.Probe(h)
	for e := s.index.Next(&w); e >= 0; e = s.index.Next(&w) {
		if s.equal(int(s.first[e]), vecs, i) {
			return e
		}
	}
	return -1
}

// link indexes the distinct keys of the build rows, each hashed in hashes,
// but those whose next is -1, a NULL key, which buildNull reports: first[e]
// is the first row with entry e's key and next[ri] becomes the next row
// with ri's key + 1 (0 ends the chain).
func (s *buildSide) link(hashes []uint64, next []int32) (buildNull bool) {
	index, first := value.NewIndex(len(next)), make([]int32, 0, len(next))
	for ri := len(next) - 1; ri >= 0; ri-- {
		if next[ri] < 0 {
			buildNull = true
			continue
		}
		vecs := s.keys[s.bat[ri]]
		w := index.Probe(hashes[ri])
		e := index.Next(&w)
		for e >= 0 && !s.equal(int(first[e]), vecs, int(s.row[ri])) {
			e = index.Next(&w)
		}
		if e < 0 {
			e = index.Insert(w)
			first = append(first, -1)
		}
		next[ri], first[e] = first[e]+1, int32(ri)
	}
	s.index, s.first = index, first
	return buildNull
}
