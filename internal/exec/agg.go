package exec

import (
	"fmt"
	"math"

	"hana/internal/expr"
	"hana/internal/value"
)

// AggSpec describes one aggregate output: FuncName(Arg) with optional
// DISTINCT. Arg nil means COUNT(*).
type AggSpec struct {
	Func     string
	Arg      expr.Expr // bound to the input schema; nil for COUNT(*)
	Distinct bool
}

// AggState accumulates one aggregate for one group. The exported fields are
// the whole state — two states with equal fields merge and finalise alike —
// so internal/dist ships them between nodes as they are.
type AggState struct {
	Count   int64
	Sum     float64
	SumI    int64
	IntOnly bool
	Min     value.Value
	Max     value.Value
	SumSq   float64
	HasVal  bool
	// Distinct marks a DISTINCT aggregate; Order holds the values it has
	// counted, in first-seen order.
	Distinct bool
	Order    []value.Value
	seen     map[value.Value]bool // index of Order; rebuilt on first Add when the state was copied field by field
}

// NewAggState returns the empty accumulator.
func NewAggState(distinct bool) *AggState {
	s := &AggState{IntOnly: true, Min: value.Null, Max: value.Null, Distinct: distinct}
	if distinct {
		s.seen = map[value.Value]bool{}
	}
	return s
}

// Add folds one argument value into the state (COUNT(*) has no argument:
// its callers bump Count and set HasVal directly).
func (s *AggState) Add(v value.Value) {
	if v.IsNull() {
		return
	}
	if s.Distinct {
		if s.seen == nil {
			s.seen = make(map[value.Value]bool, len(s.Order))
			for _, o := range s.Order {
				s.seen[o] = true
			}
		}
		if s.seen[v] {
			return
		}
		s.seen[v] = true
		s.Order = append(s.Order, v)
	}
	s.HasVal = true
	s.Count++
	switch v.K {
	case value.KindInt:
		s.SumI += v.I
		s.Sum += float64(v.I)
	case value.KindDouble:
		s.IntOnly = false
		s.Sum += v.F
	default:
		s.IntOnly = false
	}
	s.SumSq += v.Float() * v.Float()
	if s.Min.IsNull() || value.Compare(v, s.Min) < 0 {
		s.Min = v
	}
	if s.Max.IsNull() || value.Compare(v, s.Max) > 0 {
		s.Max = v
	}
}

// Merge folds another partial state for the same group into s. DISTINCT
// states replay the other side's values in their first-seen order, so a
// chain of merges in morsel order reproduces exactly the state a serial
// pass over the concatenated input would build. Plain states combine their
// running sums, which is also order-independent only across morsel
// boundaries — the per-morsel partials themselves are fixed by the morsel
// boundaries, so the merged result is identical at any worker count.
func (s *AggState) Merge(o *AggState) {
	if s.Distinct {
		for _, v := range o.Order {
			s.Add(v)
		}
		return
	}
	if o.Count == 0 && !o.HasVal {
		return
	}
	s.HasVal = s.HasVal || o.HasVal
	s.Count += o.Count
	s.SumI += o.SumI
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	s.IntOnly = s.IntOnly && o.IntOnly
	if !o.Min.IsNull() && (s.Min.IsNull() || value.Compare(o.Min, s.Min) < 0) {
		s.Min = o.Min
	}
	if !o.Max.IsNull() && (s.Max.IsNull() || value.Compare(o.Max, s.Max) > 0) {
		s.Max = o.Max
	}
}

// Result finalises the state for one aggregate function.
func (s *AggState) Result(fn string) (value.Value, error) {
	switch fn {
	case "COUNT":
		return value.NewInt(s.Count), nil
	case "SUM":
		if !s.HasVal {
			return value.Null, nil
		}
		if s.IntOnly {
			return value.NewInt(s.SumI), nil
		}
		return value.NewDouble(s.Sum), nil
	case "AVG":
		if s.Count == 0 {
			return value.Null, nil
		}
		return value.NewDouble(s.Sum / float64(s.Count)), nil
	case "MIN":
		return s.Min, nil
	case "MAX":
		return s.Max, nil
	case "VAR":
		if s.Count < 2 {
			return value.Null, nil
		}
		mean := s.Sum / float64(s.Count)
		return value.NewDouble(s.SumSq/float64(s.Count) - mean*mean), nil
	case "STDDEV":
		if s.Count < 2 {
			return value.Null, nil
		}
		mean := s.Sum / float64(s.Count)
		return value.NewDouble(math.Sqrt(math.Max(0, s.SumSq/float64(s.Count)-mean*mean))), nil
	}
	return value.Null, fmt.Errorf("unknown aggregate %s", fn)
}

// AggGroup is one group of a group table: its key, one state per aggregate,
// and First, the ordinal in the operator's input of the first row that fell
// into the group. Merging keeps the smaller First; a caller that merges
// partials of different inputs first rewrites First into a numbering they
// share (a dist worker: the row's global scan sequence).
type AggGroup struct {
	Key    value.Row
	States []*AggState
	First  int64
	hash   uint64 // of Key, set by whichever AggPartial method added the group
}

// AggPartial is one morsel's (or a merged) group table, Groups in first-seen
// order (a holder of the merged table may re-sort them).
type AggPartial struct {
	Groups []*AggGroup
	table  map[uint64][]*AggGroup
}

// NewAggPartial returns an empty group table.
func NewAggPartial() *AggPartial { return &AggPartial{table: map[uint64][]*AggGroup{}} }

// insert appends a group whose key the table does not hold yet.
func (p *AggPartial) insert(hsh uint64, g *AggGroup) {
	g.hash = hsh
	p.table[hsh] = append(p.table[hsh], g)
	p.Groups = append(p.Groups, g)
}

// Append adds a group under a key the table does not hold yet — how a wire
// decoder rebuilds a shipped partial.
func (p *AggPartial) Append(g *AggGroup) { p.insert(g.Key.Hash(ordinals(len(g.Key))), g) }

// Merge folds o's groups into p in o's order: a key p lacks is appended (p
// shares the group with o from then on), a key p has merges state by state.
// Merging morsel partials in morsel order therefore leaves Groups in the
// input's first-seen order.
func (p *AggPartial) Merge(o *AggPartial) {
	if len(o.Groups) == 0 {
		return
	}
	ords := ordinals(len(o.Groups[0].Key))
	for _, g := range o.Groups {
		var dst *AggGroup
		for _, cand := range p.table[g.hash] {
			if cand.Key.EqualAt(g.Key, ords, ords) {
				dst = cand
				break
			}
		}
		if dst == nil {
			p.insert(g.hash, g)
			continue
		}
		if g.First < dst.First {
			dst.First = g.First
		}
		for i := range dst.States {
			dst.States[i].Merge(g.States[i])
		}
	}
}

// Rows finalises the groups, in order, into [key…, aggregate results…] rows.
// global asks for SQL's single group over empty input when there is none.
func (p *AggPartial) Rows(aggs []AggSpec, global bool) ([]value.Row, error) {
	groups := p.Groups
	if len(groups) == 0 && global {
		groups = []*AggGroup{newAggGroup(nil, aggs, 0)}
	}
	rows := make([]value.Row, 0, len(groups))
	for _, g := range groups {
		out := make(value.Row, 0, len(g.Key)+len(aggs))
		out = append(out, g.Key...)
		for i, a := range aggs {
			v, err := g.States[i].Result(a.Func)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		rows = append(rows, out)
	}
	return rows, nil
}

// newAggGroup starts a group with empty states for the aggregates.
func newAggGroup(key value.Row, aggs []AggSpec, first int) *AggGroup {
	g := &AggGroup{Key: key, States: make([]*AggState, len(aggs)), First: int64(first)}
	for i, a := range aggs {
		g.States[i] = NewAggState(a.Distinct)
	}
	return g
}

func ordinals(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
