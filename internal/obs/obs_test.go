package obs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hana/internal/value"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fed.remote_queries")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters never regress
	c.Add(0)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("fed.remote_queries") != c {
		t.Fatalf("second lookup returned a different counter")
	}

	g := r.Gauge("exec.workers_highwater")
	g.Set(3)
	g.SetMax(7)
	g.SetMax(2)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(5)
	if c.Load() != 0 || g.Load() != 0 {
		t.Fatalf("nil metrics must read zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	st, ok := r.Snapshot().Histogram("lat")
	if !ok {
		t.Fatalf("histogram missing from snapshot")
	}
	wantCounts := []int64{2, 2, 0, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: none; overflow: 5000
	if len(st.Counts) != len(wantCounts) {
		t.Fatalf("bucket count = %d, want %d", len(st.Counts), len(wantCounts))
	}
	for i, w := range wantCounts {
		if st.Counts[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (%v)", i, st.Counts[i], w, st.Counts)
		}
	}
	if st.Count != 5 || st.Sum != 5+10+11+100+5000 {
		t.Fatalf("count/sum = %d/%d", st.Count, st.Sum)
	}
	// Existing histogram keeps its bounds even if re-requested differently.
	if got := r.Histogram("lat", []int64{1}); got.bounds[0] != 10 {
		t.Fatalf("histogram bounds were replaced")
	}
	// Default bounds apply when nil is passed.
	d := r.Histogram("lat2", nil)
	if len(d.bounds) != len(LatencyBoundsUs) {
		t.Fatalf("default bounds not applied")
	}
}

func TestSnapshotSortedAndImmutable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(9)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Counter("a"); !ok || v != 2 {
		t.Fatalf("lookup a = %d,%v", v, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Fatalf("lookup of missing counter succeeded")
	}
	if v, ok := s.Gauge("z"); !ok || v != 9 {
		t.Fatalf("lookup z = %d,%v", v, ok)
	}
	r.Counter("a").Add(100)
	if v, _ := s.Counter("a"); v != 2 {
		t.Fatalf("snapshot mutated after the fact: %d", v)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter(fmt.Sprintf("c%d", j%5)).Inc()
				r.Gauge("g").SetMax(int64(j))
				r.Histogram("h", nil).Observe(int64(j))
				_ = r.Snapshot()
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	var total int64
	for _, c := range s.Counters {
		total += c.Value
	}
	if total != 8*200 {
		t.Fatalf("counter total = %d, want %d", total, 8*200)
	}
}

func TestSpanTreeAndDetail(t *testing.T) {
	tr := NewTrace("SELECT 1")
	if tr.ID() == 0 {
		t.Fatalf("trace id must be nonzero")
	}
	sp := tr.StartSpan("plan")
	sp.SetAttr("strategy", "semijoin")
	sp.SetAttr("strategy", "ship-whole") // last write wins
	sp.SetAttrInt("est_rows", 42)
	sp.Note("rejected semijoin: est %d > threshold %d", 42, 10)
	child := sp.StartSpan("estimate")
	child.End()
	sp.End()
	sp.End() // idempotent
	tr.Finish(nil)

	if got := sp.Detail(); got != "strategy=ship-whole; est_rows=42; rejected semijoin: est 42 > threshold 10" {
		t.Fatalf("detail = %q", got)
	}
	if tr.Err() != "" {
		t.Fatalf("unexpected error %q", tr.Err())
	}
	var names []string
	tr.Walk(func(depth int, s *Span) {
		names = append(names, fmt.Sprintf("%d:%s", depth, s.Name()))
	})
	want := []string{"0:query", "1:plan", "2:estimate"}
	if len(names) != len(want) {
		t.Fatalf("walk = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("walk[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestTraceFinishRecordsError(t *testing.T) {
	tr := NewTrace("SELECT broken")
	tr.Finish(errors.New("boom"))
	if tr.Err() != "boom" {
		t.Fatalf("err = %q", tr.Err())
	}
	if tr.Duration() <= 0 {
		t.Fatalf("duration must be positive")
	}
}

func TestNilSpanAndTraceSafe(t *testing.T) {
	var sp *Span
	child := sp.StartSpan("x")
	if child != nil {
		t.Fatalf("nil span must produce nil children")
	}
	child.End()
	sp.End()
	sp.SetAttr("a", "b")
	sp.Note("n")
	if sp.Name() != "" || sp.Detail() != "" || sp.Duration() != 0 {
		t.Fatalf("nil span accessors must be zero")
	}
	var tr *QueryTrace
	tr.Finish(nil)
	tr.Walk(func(int, *Span) { t.Fatalf("nil trace walked") })
	if tr.Timeline() != "" || tr.Topology() != "" || tr.ID() != 0 {
		t.Fatalf("nil trace renders must be empty")
	}
}

func TestTopologySortsSiblings(t *testing.T) {
	tr := NewTrace("q")
	// Simulate racy sibling arrival order.
	b := tr.StartSpan("b-late")
	a := tr.StartSpan("a-early")
	a.End()
	b.End()
	tr.Finish(nil)
	want := "query\n  a-early\n  b-late\n"
	if got := tr.Topology(); got != want {
		t.Fatalf("topology = %q, want %q", got, want)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	if r.Cap() != 3 {
		t.Fatalf("cap = %d", r.Cap())
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("q%d", i))
		tr.Finish(nil)
		r.Push(tr)
		ids = append(ids, tr.ID())
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(got))
	}
	for i, tr := range got {
		if tr.ID() != ids[i+2] {
			t.Fatalf("ring order wrong: got id %d at %d, want %d", tr.ID(), i, ids[i+2])
		}
	}
	var nilRing *TraceRing
	nilRing.Push(NewTrace("x"))
	if nilRing.Snapshot() != nil || nilRing.Cap() != 0 {
		t.Fatalf("nil ring must be inert")
	}
}

func TestContextCarriesTraceAndSpan(t *testing.T) {
	tr := NewTrace("q")
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatalf("trace not carried")
	}
	if SpanFrom(ctx) != tr.Root() {
		t.Fatalf("root span not current")
	}
	sp := tr.StartSpan("exec")
	ctx2 := ContextWithSpan(ctx, sp)
	if SpanFrom(ctx2) != sp {
		t.Fatalf("span not carried")
	}
	if TraceFrom(ctx2) != tr {
		t.Fatalf("trace lost when pushing span")
	}
	if TraceFrom(nil) != nil || SpanFrom(nil) != nil {
		t.Fatalf("nil context must yield nils")
	}
	sp.End()
	tr.Finish(nil)
}

func TestViewRegistryTyped(t *testing.T) {
	vr := NewViewRegistry()
	def := ViewDef{
		Name: "m_demo",
		Columns: []value.Column{
			{Name: "NAME", Kind: value.KindVarchar},
			{Name: "N", Kind: value.KindInt},
		},
		Fill: func(out *value.Rows) error {
			out.Append(value.Row{value.NewString("a"), value.NewInt(1)})
			return nil
		},
	}
	if err := vr.Register(def); err != nil {
		t.Fatalf("register: %v", err)
	}
	if !vr.Has("M_DEMO") || !vr.Has("m_demo") {
		t.Fatalf("name lookup must be case-insensitive")
	}
	rows, ok, err := vr.Rows("M_Demo")
	if err != nil || !ok {
		t.Fatalf("rows: ok=%v err=%v", ok, err)
	}
	if rows.Len() != 1 || rows.Schema.Len() != 2 {
		t.Fatalf("rows = %d x %d", rows.Len(), rows.Schema.Len())
	}
	metas := vr.List()
	if len(metas) != 1 || metas[0].Name != "M_DEMO" {
		t.Fatalf("list = %+v", metas)
	}
	if len(metas[0].Columns) != 2 || metas[0].Columns[0].Name != "NAME" {
		t.Fatalf("column metadata = %+v", metas[0].Columns)
	}
	vr.Unregister("m_demo")
	if vr.Has("M_DEMO") {
		t.Fatalf("unregister failed")
	}
}

func TestViewRegistryValidation(t *testing.T) {
	vr := NewViewRegistry()
	if err := vr.Register(ViewDef{}); err == nil {
		t.Fatalf("empty def must fail")
	}
	if err := vr.Register(ViewDef{Name: "V"}); err == nil {
		t.Fatalf("missing columns must fail")
	}
	if err := vr.Register(ViewDef{Name: "V", Columns: []value.Column{{Name: "A", Kind: value.KindInt}}}); err == nil {
		t.Fatalf("missing fill must fail")
	}

	// Arity mismatches are caught at fill time.
	bad := ViewDef{
		Name:    "V",
		Columns: []value.Column{{Name: "A", Kind: value.KindInt}},
		Fill: func(out *value.Rows) error {
			out.Append(value.Row{value.NewInt(1), value.NewInt(2)})
			return nil
		},
	}
	if err := vr.Register(bad); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, ok, err := vr.Rows("V"); !ok || err == nil {
		t.Fatalf("arity mismatch must error (ok=%v err=%v)", ok, err)
	}
	// Fill errors propagate.
	_ = vr.Register(ViewDef{
		Name:    "V",
		Columns: []value.Column{{Name: "A", Kind: value.KindInt}},
		Fill:    func(out *value.Rows) error { return errors.New("fill failed") },
	})
	if _, ok, err := vr.Rows("v"); !ok || err == nil || err.Error() != "fill failed" {
		t.Fatalf("fill error lost (ok=%v err=%v)", ok, err)
	}
	// Missing views report !ok without error.
	if _, ok, err := vr.Rows("NOPE"); ok || err != nil {
		t.Fatalf("missing view: ok=%v err=%v", ok, err)
	}
}
