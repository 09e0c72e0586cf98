package exec

import (
	"fmt"

	"hana/internal/expr"
	"hana/internal/value"
)

// JoinKind enumerates the join flavors the executor supports. The semi and
// anti kinds, which only HashJoinParallel runs, implement IN/EXISTS
// subqueries.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinSemi // emit left row if ≥1 match (IN, EXISTS)
	JoinAnti // emit left row if 0 matches (NOT EXISTS)
	// JoinAntiNullAware is NOT IN: JoinAnti, except that a NULL build key
	// emits nothing and a NULL probe key emits only when the build side is
	// empty.
	JoinAntiNullAware
)

// NestedLoopJoin joins without equality keys (general predicates, cross
// joins) and returns the combined rows: each left row meets every right row
// in order, and under JoinLeftOuter a left row that matched none comes out
// once, null-extended. kind is JoinInner or JoinLeftOuter; on is bound to
// the concatenated schema, nil for a cross product.
func NestedLoopJoin(kind JoinKind, left, right Rel, on expr.Expr) ([]value.Row, error) {
	lw, rw := left.Schema.Len(), right.Schema.Len()
	rrows := right.AllRows()
	buf := make(value.Row, lw+rw)
	var out []value.Row
	for _, l := range left.AllRows() {
		copy(buf, l)
		matched := false
		for _, r := range rrows {
			copy(buf[lw:], r)
			if on != nil {
				ok, err := expr.Truthy(on, buf)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			matched = true
			out = append(out, buf.Clone())
		}
		if kind == JoinLeftOuter && !matched {
			row := make(value.Row, lw+rw)
			copy(row, l)
			for i := lw; i < len(row); i++ {
				row[i] = value.Null
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// String names a join kind for plan display.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeftOuter:
		return "LEFT OUTER"
	case JoinSemi:
		return "SEMI"
	case JoinAnti:
		return "ANTI"
	case JoinAntiNullAware:
		return "NULL-AWARE ANTI"
	}
	return fmt.Sprintf("JoinKind(%d)", int(k))
}
