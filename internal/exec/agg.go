package exec

import (
	"encoding/binary"
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
// so internal/dist and Hive ship them between nodes as they are. Every sum
// is exact (ExactSum, rounded once in Result), so partial states merge to
// the same result in any grouping and order.
type AggState struct {
	Count int64
	// Sum is the exact total of the values added, INTEGERs as DOUBLEs, and
	// SumSq (VAR and STDDEV only) that of their exact squares. SumI is the
	// INTEGER total SUM reports while IntOnly holds.
	Sum     ExactSum
	SumI    int64
	IntOnly bool
	Min     value.Value
	Max     value.Value
	SumSq   ExactSum
	HasVal  bool
	// Distinct marks a DISTINCT aggregate; Order holds the values it has
	// counted, in first-seen order, and Result aggregates them.
	Distinct bool
	Order    []value.Value
	seen     map[value.Value]bool // index of Order; rebuilt on first Add when the state was copied field by field
	// op selects what Add updates: only what Result reads for the function
	// NewAggState was given. A state decoded field by field has op 0; it is
	// only merged into and finalised, and a DISTINCT state's Add, which
	// Merge calls, only collects values.
	op aggOp
}

// aggOp is the part of an aggregate state a function reads.
type aggOp uint8

const (
	opCount aggOp = iota // COUNT: Count alone
	opSum                // SUM, AVG: Sum, SumI, IntOnly
	opMin
	opMax
	opVar // VAR, STDDEV: Sum and SumSq
)

func aggOpOf(fn string) aggOp {
	switch fn {
	case "SUM", "AVG":
		return opSum
	case "MIN":
		return opMin
	case "MAX":
		return opMax
	case "VAR", "STDDEV":
		return opVar
	}
	return opCount
}

// NewAggState returns the empty accumulator for aggregate function fn.
func NewAggState(fn string, distinct bool) *AggState {
	s := &AggState{IntOnly: true, Min: value.Null, Max: value.Null, Distinct: distinct, op: aggOpOf(fn)}
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
	s.HasVal = true
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
		s.Count++
		return
	}
	s.Count++
	switch s.op {
	case opSum:
		switch v.K {
		case value.KindInt:
			s.SumI += v.I
			s.Sum.Add(float64(v.I))
		case value.KindDouble:
			s.IntOnly = false
			s.Sum.Add(v.F)
		default:
			s.IntOnly = false
		}
	case opMin:
		if s.Min.IsNull() || value.Compare(v, s.Min) < 0 {
			s.Min = v
		}
	case opMax:
		if s.Max.IsNull() || value.Compare(v, s.Max) > 0 {
			s.Max = v
		}
	case opVar:
		x := v.Float()
		s.Sum.Add(x)
		// x² exactly: the rounded product plus its rounding error.
		p := x * x
		s.SumSq.Add(p)
		if p-p == 0 {
			s.SumSq.Add(math.FMA(x, x, -p))
		}
	}
}

// Merge folds another partial state for the same group into s. DISTINCT
// states replay the other side's values in their first-seen order, so a
// chain of merges in morsel order reproduces exactly the state a serial
// pass over the concatenated input would build. Plain states combine their
// counts, exact sums and bounds, so any split of the input merged in any
// order finalises to the serial pass's result.
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
	s.Sum.Merge(&o.Sum)
	s.SumSq.Merge(&o.SumSq)
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
	if s.Distinct && fn != "COUNT" {
		plain := NewAggState(fn, false)
		for _, v := range s.Order {
			plain.Add(v)
		}
		s = plain
	}
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
		return value.NewDouble(s.Sum.Float()), nil
	case "AVG":
		if s.Count == 0 {
			return value.Null, nil
		}
		return value.NewDouble(s.Sum.Float() / float64(s.Count)), nil
	case "MIN":
		return s.Min, nil
	case "MAX":
		return s.Max, nil
	case "VAR":
		if s.Count < 2 {
			return value.Null, nil
		}
		return value.NewDouble(s.variance()), nil
	case "STDDEV":
		if s.Count < 2 {
			return value.Null, nil
		}
		return value.NewDouble(math.Sqrt(s.variance())), nil
	}
	return value.Null, fmt.Errorf("unknown aggregate %s", fn)
}

// variance is the population variance (n·Σx² − (Σx)²) / n², with the
// numerator computed exactly — every product split into its rounded value
// and error by FMA — and rounded once, so values far from zero with a small
// spread do not cancel to 0.
func (s *AggState) variance() float64 {
	if s.Sum.special != 0 || s.SumSq.special != 0 {
		return math.NaN()
	}
	n := float64(s.Count)
	var num ExactSum
	addProduct := func(a, b float64) {
		p := a * b
		num.Add(p)
		if p-p == 0 {
			num.Add(math.FMA(a, b, -p))
		}
	}
	for _, q := range s.SumSq.parts() {
		addProduct(n, q)
	}
	xs := s.Sum.parts()
	for _, a := range xs {
		for _, b := range xs {
			addProduct(-a, b)
		}
	}
	return math.Max(0, num.Float()) / (n * n)
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
		g.States[i] = NewAggState(a.Func, a.Distinct)
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

// AppendAggState appends the binary form of a state, the one dist ships in an
// aggregate chunk and Hive in its shuffle: Count, Sum, SumI, IntOnly, Min,
// Max, SumSq, HasVal, Distinct, then Order. A sum is its partial count and
// each partial's IEEE bits; a value is value.AppendValue.
func AppendAggState(buf []byte, st *AggState) []byte {
	buf = binary.AppendVarint(buf, st.Count)
	buf = appendSum(buf, &st.Sum)
	buf = binary.AppendVarint(buf, st.SumI)
	buf = appendBool(buf, st.IntOnly)
	buf = value.AppendValue(buf, st.Min)
	buf = value.AppendValue(buf, st.Max)
	buf = appendSum(buf, &st.SumSq)
	buf = appendBool(buf, st.HasVal)
	buf = appendBool(buf, st.Distinct)
	buf = binary.AppendUvarint(buf, uint64(len(st.Order)))
	for _, v := range st.Order {
		buf = value.AppendValue(buf, v)
	}
	return buf
}

func appendSum(buf []byte, s *ExactSum) []byte {
	var arr [4]float64
	ps := s.AppendPartials(arr[:0])
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
	}
	return buf
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeAggState reads one state written by AppendAggState and returns it
// with the bytes it took.
func DecodeAggState(b []byte) (AggState, int, error) {
	d := value.NewCursor(b)
	st := ReadAggState(&d)
	if err := d.Err(); err != nil {
		return AggState{}, 0, fmt.Errorf("aggregate state: %w", err)
	}
	return st, d.Off(), nil
}

// ReadAggState reads one state written by AppendAggState at d; a malformed
// state latches d's error. A sum is rebuilt by adding each listed partial,
// so a list another node did not write in normal form is renormalized, not
// trusted; a list longer than MaxPartials is an error.
func ReadAggState(d *value.Cursor) AggState {
	st := AggState{Count: d.Varint()}
	readSum(d, &st.Sum)
	st.SumI = d.Varint()
	st.IntOnly = d.Bool()
	st.Min = d.Value()
	st.Max = d.Value()
	readSum(d, &st.SumSq)
	st.HasVal = d.Bool()
	st.Distinct = d.Bool()
	n := d.Uvarint()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		st.Order = append(st.Order, d.Value())
	}
	return st
}

func readSum(d *value.Cursor, s *ExactSum) {
	n := d.Uvarint()
	if n > MaxPartials {
		d.Fail(fmt.Errorf("a sum of more than %d partials", MaxPartials))
		return
	}
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		s.Add(math.Float64frombits(d.Uint64()))
	}
}
