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
// joins). The right side is materialized once.
type NestedLoopJoin struct {
	Kind  JoinKind // JoinInner or JoinLeftOuter
	Left  Iter
	Right Iter
	On    expr.Expr // bound to concatenated schema; nil = cross product

	out        *value.Schema
	right      []value.Row
	built      bool
	cur        value.Row
	ri         int
	curMatched bool
	buf        value.Row
}

// Schema implements Iter.
func (n *NestedLoopJoin) Schema() *value.Schema {
	if n.out == nil {
		n.out = n.Left.Schema().Concat(n.Right.Schema())
	}
	return n.out
}

// Next implements Iter.
func (n *NestedLoopJoin) Next() (value.Row, bool, error) {
	if !n.built {
		rows, err := Materialize(n.Right)
		if err != nil {
			return nil, false, err
		}
		n.right = rows.Data
		n.built = true
		n.buf = make(value.Row, n.Left.Schema().Len()+n.Right.Schema().Len())
		n.ri = len(n.right) // force fetch of first left row
	}
	for {
		if n.ri >= len(n.right) {
			// advance to next left row
			if n.cur != nil && n.Kind == JoinLeftOuter && !n.curMatched {
				row := n.combineNullRight(n.cur)
				n.cur = nil
				return row, true, nil
			}
			left, ok, err := n.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.cur = left.Clone()
			n.ri = 0
			n.curMatched = false
			continue
		}
		right := n.right[n.ri]
		n.ri++
		combined := n.combine(n.cur, right)
		match := true
		if n.On != nil {
			var err error
			match, err = expr.Truthy(n.On, combined)
			if err != nil {
				return nil, false, err
			}
		}
		if !match {
			continue
		}
		n.curMatched = true
		return combined, true, nil
	}
}

func (n *NestedLoopJoin) combine(left, right value.Row) value.Row {
	copy(n.buf, left)
	copy(n.buf[len(left):], right)
	return n.buf[:len(left)+len(right)]
}

func (n *NestedLoopJoin) combineNullRight(left value.Row) value.Row {
	copy(n.buf, left)
	w := n.Right.Schema().Len()
	for i := 0; i < w; i++ {
		n.buf[len(left)+i] = value.Null
	}
	return n.buf[:len(left)+w]
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
