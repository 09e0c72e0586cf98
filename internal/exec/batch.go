package exec

import (
	"hana/internal/expr"
	"hana/internal/value"
)

// Batch-at-a-time execution. BatchIter is the primary operator interface:
// operators exchange value.Batch columnar batches — typed vectors plus a
// selection vector — and only materialize value.Row slices at the edges
// (aggregation/join barriers, final result sets). Every batch operator also
// implements the row Iter, materializing its batches lazily, so the
// row-consuming operators (Sort, Distinct, Limit, the joins) compose with
// batch producers unchanged. Batches are morsel-sized and flow in morsel
// order, which keeps the byte-identical-at-any-width determinism contract:
// the rows a batch pipeline materializes are exactly the rows evaluating
// the same expressions row by row produces, in the same order.
type BatchIter interface {
	// Schema describes the rows the batches decode to.
	Schema() *value.Schema
	// NextBatch returns the next batch, or nil when exhausted. Returned
	// batches may share payload arrays with the producer and must be
	// treated as immutable except for the selection vector, which the
	// consumer owns and may refine in place.
	NextBatch() (*value.Batch, error)
}

// batchRows adapts NextBatch streams to row-at-a-time Next calls.
type batchRows struct {
	rows []value.Row
	i    int
}

func (br *batchRows) next(in BatchIter) (value.Row, bool, error) {
	for br.i >= len(br.rows) {
		b, err := in.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		br.rows, br.i = b.MaterializeRows(), 0
	}
	r := br.rows[br.i]
	br.i++
	return r, true, nil
}

// BatchSlice iterates a materialized list of batches — the batch
// counterpart of Slice, and the executor input for vectorized scans.
type BatchSlice struct {
	S  *value.Schema
	Bs []*value.Batch
	i  int
	br batchRows
}

// NewBatchSlice builds a BatchSlice iterator.
func NewBatchSlice(s *value.Schema, bs []*value.Batch) *BatchSlice {
	return &BatchSlice{S: s, Bs: bs}
}

// Schema implements BatchIter and Iter.
func (s *BatchSlice) Schema() *value.Schema { return s.S }

// NextBatch implements BatchIter.
func (s *BatchSlice) NextBatch() (*value.Batch, error) {
	if s.i >= len(s.Bs) {
		return nil, nil
	}
	b := s.Bs[s.i]
	s.i++
	return b, nil
}

// Next implements Iter by materializing batches lazily.
func (s *BatchSlice) Next() (value.Row, bool, error) { return s.br.next(s) }

// materialized is a row producer whose remaining rows already exist and are
// never overwritten — a Slice's rows, an aggregate's groups — so a consumer
// may keep them instead of copying what Next returns. rest hands them over
// and leaves the producer exhausted.
type materialized interface {
	rest() ([]value.Row, error)
}

// Batches adapts a row iterator into a batch producer, accumulating
// DefaultMorselSize rows per batch. Because Iter may reuse its row slice,
// values are copied into a per-batch slab as they arrive; the rows of a
// materialized producer are cut into batches where they lie.
type Batches struct {
	In Iter
	// Needed, when non-nil, marks the column ordinals the consumer reads;
	// the others come out pruned (value.BatchFromRows).
	Needed []bool
	// Size overrides DefaultMorselSize (tests); 0 = default.
	Size int
	done bool
	rows []value.Row // what is left of a materialized In, once taken
	br   batchRows
}

// Schema implements BatchIter.
func (a *Batches) Schema() *value.Schema { return a.In.Schema() }

// NextBatch implements BatchIter.
func (a *Batches) NextBatch() (*value.Batch, error) {
	if a.done {
		return nil, nil
	}
	size := a.Size
	if size <= 0 {
		size = DefaultMorselSize
	}
	s := a.In.Schema()
	if m, ok := a.In.(materialized); ok {
		if a.rows == nil {
			var err error
			if a.rows, err = m.rest(); err != nil {
				return nil, err
			}
		}
		n := min(size, len(a.rows))
		if n == 0 {
			a.done = true
			return nil, nil
		}
		b := value.BatchFromRows(s, a.rows[:n], a.Needed)
		a.rows = a.rows[n:]
		return b, nil
	}
	w := s.Len()
	slab := make([]value.Value, 0, size*w)
	n := 0
	for n < size {
		row, ok, err := a.In.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			a.done = true
			break
		}
		slab = append(slab, row...)
		n++
	}
	if n == 0 {
		return nil, nil
	}
	rows := make([]value.Row, n)
	for k := 0; k < n; k++ {
		rows[k] = slab[k*w : (k+1)*w : (k+1)*w]
	}
	return value.BatchFromRows(s, rows, a.Needed), nil
}

// Next implements Iter.
func (a *Batches) Next() (value.Row, bool, error) { return a.br.next(a) }

// AsBatches is in as a batch producer: in itself when it already produces
// batches, otherwise its rows cut into batches of the needed columns (nil =
// all).
func AsBatches(in Iter, needed []bool) BatchIter {
	if b, ok := in.(BatchIter); ok {
		return b
	}
	return &Batches{In: in, Needed: needed}
}

// BatchFilter refines each batch's selection vector through the vectorized
// predicate path; batches whose selection empties out are skipped. It is
// the platform's only filter operator: a row producer enters through Batches.
type BatchFilter struct {
	In   BatchIter
	Pred expr.Expr
	br   batchRows
}

// Schema implements BatchIter and Iter.
func (f *BatchFilter) Schema() *value.Schema { return f.In.Schema() }

// NextBatch implements BatchIter.
func (f *BatchFilter) NextBatch() (*value.Batch, error) {
	for {
		b, err := f.In.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := expr.SelectBatch(f.Pred, b); err != nil {
			return nil, err
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// Next implements Iter.
func (f *BatchFilter) Next() (value.Row, bool, error) { return f.br.next(f) }

// BatchProject evaluates projection expressions per batch, sharing column
// vectors for bare column references and falling back to the row-exact Eval
// path otherwise.
type BatchProject struct {
	In    BatchIter
	Exprs []expr.Expr
	Out   *value.Schema
	br    batchRows
}

// Schema implements BatchIter and Iter.
func (p *BatchProject) Schema() *value.Schema { return p.Out }

// NextBatch implements BatchIter.
func (p *BatchProject) NextBatch() (*value.Batch, error) {
	b, err := p.In.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	out := &value.Batch{Schema: p.Out, Cols: make([]value.Vec, len(p.Exprs)), N: b.Len()}
	for i, e := range p.Exprs {
		v, err := expr.EvalBatch(e, b)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = v
	}
	return out, nil
}

// Next implements Iter.
func (p *BatchProject) Next() (value.Row, bool, error) { return p.br.next(p) }

// drainBatchRows materializes every remaining batch of a producer into one
// row slice (used by the barrier operators: aggregation and join inputs).
func drainBatchRows(in BatchIter) ([]value.Row, error) {
	var out []value.Row
	for {
		b, err := in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.MaterializeRows()...)
	}
}
