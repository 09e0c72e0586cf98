package engine

import (
	"context"

	"hana/internal/diskstore"
	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/value"
)

// scanMorsel is one unit of table-scan work: a row-id range of an in-memory
// partition, or a whole extended-storage partition (the diskstore scan is
// its own unit; zone-map ranges prune inside it).
type scanMorsel struct {
	partIdx int
	part    *partition
	lo, hi  int
	whole   bool
}

// scanParts scans the given partitions as morsels on the engine's worker
// pool, applying pred inside each morsel, and returns the kept rows
// concatenated in (partition, row-id) order — byte-identical to a serial
// scan — plus the per-partition visible (pre-filter) row counts. ranges is
// the zone-map pushdown forwarded to extended partitions only.
func (p *planner) scanParts(parts []*partition, ranges map[int]diskstore.Range, pred expr.Expr) ([]value.Row, []int, error) {
	nm := 0
	for _, part := range parts {
		if part.ext != nil {
			nm++
			continue
		}
		nm += (part.numRows() + exec.DefaultMorselSize - 1) / exec.DefaultMorselSize
	}
	ms := make([]scanMorsel, 0, nm)
	for pi, part := range parts {
		if part.ext != nil {
			ms = append(ms, scanMorsel{partIdx: pi, part: part, whole: true})
			continue
		}
		n := part.numRows()
		for lo := 0; lo < n; lo += exec.DefaultMorselSize {
			hi := lo + exec.DefaultMorselSize
			if hi > n {
				hi = n
			}
			ms = append(ms, scanMorsel{partIdx: pi, part: part, lo: lo, hi: hi})
		}
	}

	outs := make([][]value.Row, len(ms))
	visible := make([]int, len(ms))
	if len(ms) > 0 {
		workers, err := p.e.pool.Run(p.ctx, len(ms), p.width, func(_ context.Context, i int) error {
			m := ms[i]
			var rows []value.Row
			var err error
			if m.whole {
				rows, err = m.part.visibleRows(p.snapshot, p.tid, ranges)
			} else {
				rows, err = m.part.visibleRowsRange(p.snapshot, p.tid, m.lo, m.hi)
			}
			if err != nil {
				return err
			}
			visible[i] = len(rows)
			p.stats.NoteScanned(len(rows))
			if pred != nil {
				if rows, err = keepTruthy(rows, pred); err != nil {
					return err
				}
			}
			outs[i] = rows
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		p.stats.NoteDispatch(len(ms), workers)
	}

	perPart := make([]int, len(parts))
	total := 0
	for i, m := range ms {
		perPart[m.partIdx] += visible[i]
		total += len(outs[i])
	}
	out := make([]value.Row, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out, perPart, nil
}

// keepTruthy filters rows in place to those pred holds for.
func keepTruthy(rows []value.Row, pred expr.Expr) ([]value.Row, error) {
	kept := rows[:0]
	for _, r := range rows {
		ok, err := expr.Truthy(pred, r)
		if err != nil {
			return nil, err
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept, nil
}
