package exec

import "fmt"

// JoinKind enumerates the join flavors HashJoin runs. The semi and anti
// kinds implement IN/EXISTS subqueries; inner and left outer joins with no
// keys are the nested-loop joins of general predicates and cross products.
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
