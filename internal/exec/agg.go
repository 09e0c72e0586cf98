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
	index    value.Index // over Order; Add indexes values decoded into Order first
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
	s := newAggState(fn, distinct)
	return &s
}

func newAggState(fn string, distinct bool) AggState {
	return AggState{IntOnly: true, Min: value.Null, Max: value.Null, Distinct: distinct, op: aggOpOf(fn)}
}

// Add folds one argument value into the state (COUNT(*) has no argument:
// its callers bump Count and set HasVal directly).
func (s *AggState) Add(v value.Value) {
	if v.IsNull() {
		return
	}
	if s.Distinct {
		s.HasVal = true
		for o := s.index.Len(); o < len(s.Order); o++ {
			s.index.Add(value.KeyHash(s.Order[o : o+1]))
		}
		if o, p := s.index.Find(s.Order, v); o < 0 {
			s.index.Insert(p)
			s.Order = append(s.Order, v)
			s.Count++
		}
		return
	}
	switch {
	case s.op == opMin:
		s.HasVal = true
		s.Count++
		if s.Min.IsNull() || value.Compare(v, s.Min) < 0 {
			s.Min = v
		}
	case s.op == opMax:
		s.HasVal = true
		s.Count++
		if s.Max.IsNull() || value.Compare(v, s.Max) > 0 {
			s.Max = v
		}
	case v.K == value.KindInt:
		s.foldInt(v.I)
	case v.K == value.KindDouble:
		s.foldFloat(v.F)
	default: // counted; SUM and AVG add nothing, VAR and STDDEV its number
		s.HasVal = true
		s.Count++
		switch s.op {
		case opSum:
			s.IntOnly = false
		case opVar:
			s.addSquare(v.Float())
		}
	}
}

// foldInt is Add of the BIGINT x to a plain COUNT, SUM, AVG, VAR or STDDEV
// state (one whose op is neither opMin nor opMax, not DISTINCT), without
// the Value: the typed aggregate calls it on a vector's payload.
func (s *AggState) foldInt(x int64) {
	s.HasVal = true
	s.Count++
	switch s.op {
	case opSum:
		s.SumI += x
		s.Sum.Add(float64(x))
	case opVar:
		s.addSquare(float64(x))
	}
}

// foldFloat is foldInt for the DOUBLE x.
func (s *AggState) foldFloat(x float64) {
	s.HasVal = true
	s.Count++
	switch s.op {
	case opSum:
		s.IntOnly = false
		s.Sum.Add(x)
	case opVar:
		s.addSquare(x)
	}
}

// addSquare adds x to Sum and x² exactly to SumSq: the rounded product
// plus its rounding error.
func (s *AggState) addSquare(x float64) {
	s.Sum.Add(x)
	p := x * x
	s.SumSq.Add(p)
	if p-p == 0 {
		s.SumSq.Add(math.FMA(x, x, -p))
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
}

// AggPartial is one morsel's (or a merged) group table, Groups in first-seen
// order. A value.Index over the group ordinals finds a key: the morsel's key
// phase probes it with typed key comparisons, Merge with value.Compare. A
// holder that re-sorts Groups neither merges into the table nor merges it
// into another afterwards (the index names ordinals). The groups a morsel
// starts take their key and states from the partial's slab.
type AggPartial struct {
	Groups []*AggGroup
	index  value.Index
	slab   aggSlab
}

// aggSlab is storage for the groups a partial starts: chunks of groups,
// key values and states that grow with the table, so starting a group
// takes four allocations per chunk, not four per group.
type aggSlab struct {
	groups []AggGroup
	keys   []value.Value
	ptrs   []*AggState
	states []AggState
}

// Slab chunks hold as many groups as the table has, within these bounds:
// few chunks for many groups, little slack past the last group.
const (
	minSlabGroups = 8
	maxSlabGroups = 256
)

// newGroup starts a group at input ordinal first with nk zero key values,
// for the caller to fill, and a copy of each of empty's states, all from
// the slab.
func (p *AggPartial) newGroup(nk int, empty []AggState, first int64) *AggGroup {
	sl := &p.slab
	if len(sl.groups) == 0 {
		n := min(max(len(p.Groups), minSlabGroups), maxSlabGroups)
		sl.groups = make([]AggGroup, n)
		sl.keys = make([]value.Value, n*nk)
		sl.ptrs = make([]*AggState, n*len(empty))
		sl.states = make([]AggState, n*len(empty))
	}
	ns := len(empty)
	g := &sl.groups[0]
	g.Key, g.States, g.First = sl.keys[:nk:nk], sl.ptrs[:ns:ns], first
	copy(sl.states, empty)
	for j := range g.States {
		g.States[j] = &sl.states[j]
	}
	sl.groups, sl.keys, sl.ptrs, sl.states = sl.groups[1:], sl.keys[nk:], sl.ptrs[ns:], sl.states[ns:]
	return g
}

// emptyStates returns one empty state per aggregate, which newGroup copies.
func emptyStates(aggs []AggSpec) []AggState {
	out := make([]AggState, len(aggs))
	for i, a := range aggs {
		out[i] = newAggState(a.Func, a.Distinct)
	}
	return out
}

// Append adds a group under a key the table does not hold yet — how a wire
// decoder rebuilds a shipped partial. A key it does hold is not looked for:
// the group is appended all the same.
func (p *AggPartial) Append(g *AggGroup) {
	p.index.Add(value.KeyHash(g.Key))
	p.Groups = append(p.Groups, g)
}

// Merge folds o's groups into p in o's order: a key p lacks is appended (p
// shares the group with o from then on), a key p has merges state by state.
// Merging morsel partials in morsel order therefore leaves Groups in the
// input's first-seen order.
func (p *AggPartial) Merge(o *AggPartial) {
	for og, g := range o.Groups {
		w := p.index.Probe(o.index.Hash(og))
		at := p.index.Next(&w)
		for at >= 0 && !value.KeysEqual(p.Groups[at].Key, g.Key) {
			at = p.index.Next(&w)
		}
		if at < 0 {
			p.index.Insert(w)
			p.Groups = append(p.Groups, g)
			continue
		}
		dst := p.Groups[at]
		if g.First < dst.First {
			dst.First = g.First
		}
		for i := range dst.States {
			dst.States[i].Merge(g.States[i])
		}
	}
}

// Finalize returns the groups, in order, as the relation over out of their
// [key…, aggregate results…] rows, in batches of at most DefaultMorselSize:
// each key and result is written straight into the typed vector of its
// column's kind in out (value.Vec.Set; a column out does not declare is
// boxed). global asks for SQL's single group over empty input when there is
// none.
func (p *AggPartial) Finalize(out *value.Schema, aggs []AggSpec, global bool) (Rel, error) {
	groups := p.Groups
	if len(groups) == 0 && global {
		groups = []*AggGroup{p.newGroup(0, emptyStates(aggs), 0)}
	}
	rel := Rel{Schema: out, Batches: make([]*value.Batch, 0, (len(groups)+DefaultMorselSize-1)/DefaultMorselSize)}
	for lo := 0; lo < len(groups); lo += DefaultMorselSize {
		gs := groups[lo:min(lo+DefaultMorselSize, len(groups))]
		nk := len(gs[0].Key)
		b := &value.Batch{Schema: out, Cols: make([]value.Vec, nk+len(aggs)), N: len(gs)}
		for c := range b.Cols {
			kind := value.KindNull
			if out != nil && c < out.Len() {
				kind = out.Cols[c].Kind
			}
			b.Cols[c] = value.NewVec(kind, len(gs))
		}
		for k, g := range gs {
			for c, x := range g.Key {
				b.Cols[c].Set(k, x)
			}
			for i, a := range aggs {
				x, err := g.States[i].Result(a.Func)
				if err != nil {
					return Rel{}, err
				}
				b.Cols[nk+i].Set(k, x)
			}
		}
		rel.Batches = append(rel.Batches, b)
	}
	return rel, nil
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
