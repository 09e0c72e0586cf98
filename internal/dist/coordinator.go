package dist

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"hana/internal/exec"
	"hana/internal/fed"
	"hana/internal/value"
)

// Coordinator fans a fragment template out to every shard, survives replica
// failures by retrying the next owner, and merges the returned chunk
// streams back into the exact single-node row order.
type Coordinator struct {
	Topo      Topology
	Transport Transport
	// Caller guards each worker attempt (breaker + retry + fault site +
	// span). Required: every attempt routes through it, so the breaker and
	// chaos machinery can never be bypassed. The engine installs a
	// fed.GuardedCall; tests do the same.
	Caller fed.Caller
}

// GatherResult is the merged output of one distributed fragment fan-out.
type GatherResult struct {
	// Batches is a scan or join fragment's merged stream: batches of up to
	// exec.DefaultMorselSize rows in ascending global sequence order —
	// exactly the serial scan order, a join's matches in probe-input order —
	// holding only the shipped columns as typed vectors (the others
	// pruned). Unset for aggregate fragments.
	Batches []*value.Batch
	// Partial is the merged aggregate state, groups sorted by First (their
	// smallest contributing sequence: the serial first-seen group order).
	// Set only for aggregate fragments.
	Partial *exec.AggPartial
	// Scanned totals the snapshot-visible rows examined across shards.
	Scanned int64
	// Fragments counts worker attempts; Failovers counts replica
	// switch-overs after a primary failed.
	Fragments int
	Failovers int
}

// Len returns the number of rows the merge produced.
func (r *GatherResult) Len() int { return exec.Rel{Batches: r.Batches}.Len() }

// Gather runs the template on every shard (at most fanout shards in flight;
// 0 = all) and merges the streams. The template's Shard field is assigned
// per fan-out; everything else ships as-is.
func (c *Coordinator) Gather(ctx context.Context, tmpl *Fragment, fanout int) (*GatherResult, error) {
	shards := c.Topo.Shards
	if shards < 1 {
		shards = 1
	}
	if fanout <= 0 || fanout > shards {
		fanout = shards
	}
	perShard := make([][]*Chunk, shards)
	failovers := make([]int, shards)
	errs := make([]error, shards)
	sem := make(chan struct{}, fanout)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			f := *tmpl
			f.Shard = s
			perShard[s], failovers[s], errs[s] = c.runShard(ctx, &f)
		}(s)
	}
	wg.Wait()

	res := &GatherResult{}
	for s := 0; s < shards; s++ {
		if errs[s] != nil {
			return nil, errs[s]
		}
		res.Failovers += failovers[s]
		res.Fragments += 1 + failovers[s]
		for _, ch := range perShard[s] {
			res.Scanned += ch.Scanned
		}
	}
	if tmpl.Agg != nil {
		res.Partial = mergePartials(perShard)
		return res, nil
	}
	err := checkStreams(perShard)
	if err == nil {
		res.Batches, err = newMerger(perShard).batches(ctx)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runShard executes one shard's fragment against its owners in order,
// failing over to the next replica when an attempt fails. Each attempt
// restarts the chunk buffer, so a stream cut mid-way never leaks partial
// rows into the merge.
func (c *Coordinator) runShard(ctx context.Context, f *Fragment) ([]*Chunk, int, error) {
	owners := c.Topo.Owners(f.Shard)
	var lastErr error
	for i, owner := range owners {
		var buf []*Chunk
		attempt := func() error {
			buf = buf[:0]
			return c.Transport.Run(ctx, owner, f, func(ch *Chunk) error {
				buf = append(buf, ch)
				return nil
			})
		}
		target := fmt.Sprintf("dist.worker.%d", owner)
		err := c.Caller.Call(ctx, target, "fragment", target+".run", attempt)
		if err == nil {
			return buf, i, nil
		}
		lastErr = err
	}
	return nil, len(owners) - 1, fmt.Errorf("dist: shard %d failed on all %d replicas: %w", f.Shard, len(owners), lastErr)
}

// checkStreams rejects chunks the merge could not index: every row must be
// carried by a chunk's batch, and every batch must have the first one's
// columns, kinds and pruning.
func checkStreams(perShard [][]*Chunk) error {
	var proto *value.Batch
	for s, chunks := range perShard {
		for _, ch := range chunks {
			n, b := len(ch.Seqs), ch.Batch
			switch {
			case b == nil:
				if n > 0 {
					return fmt.Errorf("dist: shard %d chunk has no batch for %d sequences", s, n)
				}
				continue
			case proto == nil:
				proto = b
			}
			if b.Len() != n || len(b.Cols) != len(proto.Cols) {
				return fmt.Errorf("dist: shard %d batch of %d rows, %d columns for %d sequences, %d columns", s, b.Len(), len(b.Cols), n, len(proto.Cols))
			}
			for c := range b.Cols {
				if b.Cols[c].Kind != proto.Cols[c].Kind || b.Cols[c].Pruned != proto.Cols[c].Pruned {
					return fmt.Errorf("dist: shard %d batch column %d disagrees with the stream", s, c)
				}
			}
		}
	}
	return nil
}

// mergeCursor is a shard stream's read position: the next live row k of
// the first of its remaining non-empty chunks, whose batch is bs[slot] of
// the merged batch being gathered (slot -1: not listed yet).
type mergeCursor struct {
	chunks []*Chunk
	k      int
	slot   int32
}

func (c *mergeCursor) head() int64 { return c.chunks[0].Seqs[c.k] }

// merger k-way merges the per-shard chunk streams by global sequence.
// Within a shard the stream is already ascending (morsel order), and one
// sequence lives on exactly one shard, so taking from the cursor with the
// smallest head sequence reproduces the serial order; equal sequences (a
// probe row's multiple join matches) stay in their within-shard emission
// order. The order comes out as one (chunk, row) pair per row, which
// value.GatherFrom reads.
type merger struct {
	cursors []mergeCursor
	total   int
}

func newMerger(perShard [][]*Chunk) *merger {
	m := &merger{}
	for _, chunks := range perShard {
		var cur mergeCursor
		for _, ch := range chunks {
			if len(ch.Seqs) > 0 {
				cur.chunks = append(cur.chunks, ch)
				m.total += len(ch.Seqs)
			}
		}
		if len(cur.chunks) > 0 {
			m.cursors = append(m.cursors, cur)
		}
	}
	return m
}

// next appends the next at most limit rows of the merged stream to from and
// rows, and the batches of the chunks they read, in order of first use, to
// bs: row k is physical row rows[k] of bs[from[k]]. It returns the three
// (no rows at the end).
func (m *merger) next(bs []*value.Batch, from, rows []int32, limit int) ([]*value.Batch, []int32, []int32) {
	for i := range m.cursors {
		m.cursors[i].slot = -1
	}
	for len(rows) < limit && len(m.cursors) > 0 {
		best, bound := 0, int64(math.MaxInt64)
		for i := 1; i < len(m.cursors); i++ {
			switch h := m.cursors[i].head(); {
			case h < m.cursors[best].head():
				bound, best = m.cursors[best].head(), i
			case h < bound:
				bound = h
			}
		}
		cur := &m.cursors[best]
		ch := cur.chunks[0]
		if cur.slot < 0 {
			cur.slot, bs = int32(len(bs)), append(bs, ch.Batch)
		}
		for first := ch.Seqs[cur.k]; ; {
			from, rows = append(from, cur.slot), append(rows, int32(ch.Batch.RowIndex(cur.k)))
			if cur.k++; cur.k == len(ch.Seqs) || len(rows) == limit || ch.Seqs[cur.k] >= bound && ch.Seqs[cur.k] != first {
				break
			}
		}
		if cur.k == len(ch.Seqs) {
			cur.chunks, cur.k, cur.slot = cur.chunks[1:], 0, -1
			if len(cur.chunks) == 0 {
				m.cursors = slices.Delete(m.cursors, best, best+1)
			}
		}
	}
	return bs, from, rows
}

// batches merges the chunks into batches of up to exec.DefaultMorselSize
// rows, gathering only the shipped columns (value.GatherFrom). Every chunk's
// batch has the shape of the first (checkStreams). Once ctx ends it returns
// ctx's error and no batches.
func (m *merger) batches(ctx context.Context) ([]*value.Batch, error) {
	if m.total == 0 {
		return nil, nil
	}
	proto := m.cursors[0].chunks[0].Batch
	out := make([]*value.Batch, 0, (m.total+exec.DefaultMorselSize-1)/exec.DefaultMorselSize)
	size := min(m.total, exec.DefaultMorselSize)
	bs, from, rows := []*value.Batch(nil), make([]int32, 0, size), make([]int32, 0, size)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if bs, from, rows = m.next(bs[:0], from[:0], rows[:0], exec.DefaultMorselSize); len(rows) == 0 {
			return out, nil
		}
		b := &value.Batch{Schema: proto.Schema, Cols: make([]value.Vec, len(proto.Cols)), N: len(rows)}
		for c := range b.Cols {
			b.Cols[c].Kind = proto.Cols[c].Kind
			value.GatherFrom(&b.Cols[c], bs, from, rows, c)
		}
		out = append(out, b)
	}
}

// mergePartials unions the shards' aggregate partials with exec's own
// state merge (exact for the shipped subset), then sorts the merged groups
// by their minimum contributing sequence — the order the serial aggregate
// would have first seen each group.
func mergePartials(perShard [][]*Chunk) *exec.AggPartial {
	merged := &exec.AggPartial{}
	for _, chunks := range perShard {
		for _, ch := range chunks {
			if ch.Partial != nil {
				merged.Merge(ch.Partial)
			}
		}
	}
	sort.SliceStable(merged.Groups, func(i, j int) bool { return merged.Groups[i].First < merged.Groups[j].First })
	return merged
}
