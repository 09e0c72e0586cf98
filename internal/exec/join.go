package exec

import (
	"fmt"

	"hana/internal/expr"
	"hana/internal/value"
)

// JoinKind enumerates the hash-join flavors the executor supports. Semi and
// anti joins implement IN/EXISTS subqueries and the federated semijoin
// strategy of §3.1.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinSemi // emit left row if ≥1 match
	JoinAnti // emit left row if 0 matches
)

// HashJoin joins Left (probe) against Right (build) on equality of the
// bound key expressions. Residual is an optional extra predicate evaluated
// on the concatenated row (bound to the concatenated schema).
type HashJoin struct {
	Kind      JoinKind
	Left      Iter
	Right     Iter
	LeftKeys  []expr.Expr // bound to Left schema
	RightKeys []expr.Expr // bound to Right schema
	Residual  expr.Expr   // bound to Concat(Left, Right) schema

	// NullAwareAnti makes the anti join NULL-aware (SQL NOT IN semantics):
	// a NULL key on the build side emits no rows, and a NULL probe key is
	// emitted only when the build side is empty.
	NullAwareAnti bool

	out       *value.Schema
	built     bool
	table     map[uint64][]value.Row
	buildNull bool
	rightW    int
	buf       value.Row

	// state for multi-match probes
	pending []value.Row
	pi      int
	cur     value.Row

	// mbuf is the scratch slice matches() fills; pending aliases it, but a
	// probe row's matches are fully drained before the next matches() call,
	// so reuse never clobbers live rows.
	mbuf []value.Row
}

// Schema implements Iter. Semi/anti joins produce the left schema; inner
// and left-outer joins the concatenation.
func (j *HashJoin) Schema() *value.Schema {
	if j.out == nil {
		switch j.Kind {
		case JoinSemi, JoinAnti:
			j.out = j.Left.Schema()
		default:
			j.out = j.Left.Schema().Concat(j.Right.Schema())
		}
	}
	return j.out
}

func (j *HashJoin) build() error {
	j.table = map[uint64][]value.Row{}
	j.rightW = j.Right.Schema().Len()
	for {
		row, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h, hasNull, err := hashKeys(j.RightKeys, row)
		if err != nil {
			return err
		}
		if hasNull {
			j.buildNull = true
			continue // NULL keys never match
		}
		j.table[h] = append(j.table[h], row.Clone())
	}
	j.built = true
	return nil
}

func hashKeys(keys []expr.Expr, row value.Row) (uint64, bool, error) {
	var h uint64 = 1469598103934665603
	for _, k := range keys {
		v, err := k.Eval(row)
		if err != nil {
			return 0, false, err
		}
		if v.IsNull() {
			return 0, true, nil
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, false, nil
}

func (j *HashJoin) matches(left value.Row) ([]value.Row, error) {
	h, hasNull, err := hashKeys(j.LeftKeys, left)
	if err != nil {
		return nil, err
	}
	if hasNull {
		return nil, nil
	}
	out := j.mbuf[:0]
	for _, right := range j.table[h] {
		eq := true
		for i := range j.LeftKeys {
			lv, err := j.LeftKeys[i].Eval(left)
			if err != nil {
				return nil, err
			}
			rv, err := j.RightKeys[i].Eval(right)
			if err != nil {
				return nil, err
			}
			if lv.IsNull() || rv.IsNull() || value.Compare(lv, rv) != 0 {
				eq = false
				break
			}
		}
		if eq {
			out = append(out, right)
		}
	}
	j.mbuf = out
	return out, nil
}

// Next implements Iter.
func (j *HashJoin) Next() (value.Row, bool, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
		if j.buf == nil {
			j.buf = make(value.Row, j.Left.Schema().Len()+j.rightW)
		}
	}
	for {
		// Emit pending matches for the current probe row.
		for j.pi < len(j.pending) {
			right := j.pending[j.pi]
			j.pi++
			combined := j.combine(j.cur, right)
			if j.Residual != nil {
				keep, err := expr.Truthy(j.Residual, combined)
				if err != nil {
					return nil, false, err
				}
				if !keep {
					continue
				}
			}
			return combined, true, nil
		}
		left, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		m, err := j.matches(left)
		if err != nil {
			return nil, false, err
		}
		// Apply residual for semi/anti/outer match determination.
		if j.Residual != nil && (j.Kind == JoinSemi || j.Kind == JoinAnti || j.Kind == JoinLeftOuter) {
			// Filter in place: kept only ever trails the read cursor over m.
			kept := m[:0]
			for _, right := range m {
				keep, err := expr.Truthy(j.Residual, j.combine(left, right))
				if err != nil {
					return nil, false, err
				}
				if keep {
					kept = append(kept, right)
				}
			}
			m = kept
		}
		switch j.Kind {
		case JoinSemi:
			if len(m) > 0 {
				return left, true, nil
			}
		case JoinAnti:
			if j.NullAwareAnti && j.buildNull {
				continue // any NULL on build side ⇒ NOT IN yields unknown
			}
			if len(m) == 0 {
				// A NULL probe key is unknown against any build row; here
				// no build key is NULL, so the table is empty only when the
				// build side is, and NOT IN over nothing is true.
				_, hasNull, err := hashKeys(j.LeftKeys, left)
				if err != nil {
					return nil, false, err
				}
				if j.NullAwareAnti && hasNull && len(j.table) > 0 {
					continue
				}
				return left, true, nil
			}
		case JoinLeftOuter:
			if len(m) == 0 {
				return j.combineNullRight(left), true, nil
			}
			j.cur = left.Clone()
			j.pending, j.pi = m, 0
		case JoinInner:
			if len(m) > 0 {
				j.cur = left.Clone()
				j.pending, j.pi = m, 0
			}
		}
	}
}

func (j *HashJoin) combine(left, right value.Row) value.Row {
	copy(j.buf, left)
	copy(j.buf[len(left):], right)
	return j.buf[:len(left)+len(right)]
}

func (j *HashJoin) combineNullRight(left value.Row) value.Row {
	copy(j.buf, left)
	for i := 0; i < j.rightW; i++ {
		j.buf[len(left)+i] = value.Null
	}
	return j.buf[:len(left)+j.rightW]
}

// NestedLoopJoin joins without equality keys (general predicates, cross
// joins). The right side is materialized once.
type NestedLoopJoin struct {
	Kind  JoinKind
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
		switch n.Kind {
		case JoinSemi, JoinAnti:
			n.out = n.Left.Schema()
		default:
			n.out = n.Left.Schema().Concat(n.Right.Schema())
		}
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
			if n.cur != nil && n.Kind == JoinAnti && !n.curMatched {
				row := n.cur
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
		switch n.Kind {
		case JoinInner, JoinLeftOuter:
			return combined, true, nil
		case JoinSemi:
			n.ri = len(n.right)
			return n.cur, true, nil
		case JoinAnti:
			n.ri = len(n.right) // matched ⇒ skip this left row
		}
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
	}
	return fmt.Sprintf("JoinKind(%d)", int(k))
}
