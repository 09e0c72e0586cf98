package dist

import (
	"context"
	"fmt"
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
	// Rows and Seqs are the merged row stream in ascending global sequence
	// order — exactly the serial scan (or probe) order. Unset for
	// aggregate fragments.
	Rows []value.Row
	Seqs []int64
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
	res.Rows, res.Seqs = mergeStreams(perShard)
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

// mergeStreams k-way merges the per-shard chunk streams by global sequence.
// Within a shard the stream is already ascending (morsel order), and one
// sequence lives on exactly one shard, so picking the smallest head
// sequence reproduces the serial order; equal sequences (a probe row's
// multiple join matches) stay in their within-shard emission order.
func mergeStreams(perShard [][]*Chunk) ([]value.Row, []int64) {
	type cursor struct {
		rows []value.Row
		seqs []int64
		i    int
	}
	cursors := make([]*cursor, 0, len(perShard))
	total := 0
	for _, chunks := range perShard {
		cur := &cursor{}
		for _, ch := range chunks {
			cur.rows = append(cur.rows, ch.Rows...)
			cur.seqs = append(cur.seqs, ch.Seqs...)
		}
		total += len(cur.rows)
		if len(cur.rows) > 0 {
			cursors = append(cursors, cur)
		}
	}
	rows := make([]value.Row, 0, total)
	seqs := make([]int64, 0, total)
	for len(cursors) > 0 {
		best := 0
		for i := 1; i < len(cursors); i++ {
			if cursors[i].seqs[cursors[i].i] < cursors[best].seqs[cursors[best].i] {
				best = i
			}
		}
		cur := cursors[best]
		// Drain the run of equal sequences from this cursor so a probe
		// row's matches stay contiguous and ordered.
		seq := cur.seqs[cur.i]
		for cur.i < len(cur.seqs) && cur.seqs[cur.i] == seq {
			rows = append(rows, cur.rows[cur.i])
			seqs = append(seqs, seq)
			cur.i++
		}
		if cur.i == len(cur.seqs) {
			cursors = append(cursors[:best], cursors[best+1:]...)
		}
	}
	return rows, seqs
}

// mergePartials unions the shards' aggregate partials with exec's own
// state merge (exact for the shipped subset), then sorts the merged groups
// by their minimum contributing sequence — the order the serial aggregate
// would have first seen each group.
func mergePartials(perShard [][]*Chunk) *exec.AggPartial {
	merged := exec.NewAggPartial()
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
