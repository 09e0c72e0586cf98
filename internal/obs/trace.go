package obs

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span (worker counts, retry
// attempts, chosen strategies). Attrs carry the numbers that vary run to
// run; the span tree itself — the topology — is deterministic for a given
// statement and data set, which is what EXPLAIN TRACE's stability
// guarantee rests on.
type Attr struct {
	Key string
	Val string
}

// Span is one timed section of a query: parse, plan, a morsel dispatch, a
// remote call, a 2PC phase. Spans form a tree under a QueryTrace; children
// may be appended concurrently (morsel workers, concurrent leaf realize),
// so every accessor locks. A nil *Span ignores every operation, letting
// instrumented code run untraced with zero branches at the call sites.
type Span struct {
	name string

	mu sync.Mutex
	// hana:guardedby mu
	start time.Time
	// hana:guardedby mu
	end time.Time
	// hana:guardedby mu
	attrs []Attr
	// hana:guardedby mu
	notes []string
	// hana:guardedby mu
	children []*Span
}

// StartSpan starts a child span. Every StartSpan must be paired with End on
// all return paths (enforced by the hanalint obsleak analyzer).
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End closes the span. End is idempotent: the first call wins, so a span
// may be closed early on one path and again by a deferred End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SetAttr sets a string attribute (last write wins per key).
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Val = val
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
}

// SetAttrInt sets an integer attribute.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf("%d", v))
}

// Note appends a free-form annotation: the planner records chosen and
// rejected strategies (with their cost estimates) here.
func (s *Span) Note(format string, args ...any) {
	if s == nil {
		return
	}
	msg := fmt.Sprintf(format, args...)
	s.mu.Lock()
	s.notes = append(s.notes, msg)
	s.mu.Unlock()
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the elapsed time (zero-end spans measure to now).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Children returns a copy of the child spans in insertion order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a copy of the attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Notes returns a copy of the annotations in insertion order.
func (s *Span) Notes() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// Detail renders attrs and notes as one "k=v; ...; note" line for views.
func (s *Span) Detail() string {
	if s == nil {
		return ""
	}
	var parts []string
	for _, a := range s.Attrs() {
		parts = append(parts, a.Key+"="+a.Val)
	}
	parts = append(parts, s.Notes()...)
	return strings.Join(parts, "; ")
}

var traceSeq atomic.Uint64

// QueryTrace is the structured timeline of one statement execution: a span
// tree rooted at "query", the statement text, and the terminal error if
// any. Traces are created by ExecuteContext, threaded through the context,
// finished when the statement returns, and retained in the engine's
// TraceRing for the M_QUERY_TRACES view.
type QueryTrace struct {
	id        uint64
	statement string
	root      *Span

	mu sync.Mutex
	// hana:guardedby mu
	err string
}

// NewTrace starts a trace for one statement. IDs are process-unique and
// monotonic.
func NewTrace(statement string) *QueryTrace {
	return &QueryTrace{
		id:        traceSeq.Add(1),
		statement: statement,
		root:      &Span{name: "query", start: time.Now()},
	}
}

// ID returns the trace's process-unique id (0 on nil).
func (t *QueryTrace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// Statement returns the traced statement text.
func (t *QueryTrace) Statement() string {
	if t == nil {
		return ""
	}
	return t.statement
}

// Root returns the root span.
func (t *QueryTrace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// StartSpan starts a top-level span under the root.
func (t *QueryTrace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.root.StartSpan(name)
}

// Finish closes the root span and records the statement's terminal error.
func (t *QueryTrace) Finish(err error) {
	if t == nil {
		return
	}
	if err != nil {
		t.mu.Lock()
		t.err = err.Error()
		t.mu.Unlock()
	}
	t.root.End()
}

// Err returns the recorded terminal error ("" for success).
func (t *QueryTrace) Err() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Duration returns the root span's elapsed time.
func (t *QueryTrace) Duration() time.Duration { return t.Root().Duration() }

// Walk visits every span in preorder with its depth (root = 0).
func (t *QueryTrace) Walk(fn func(depth int, s *Span)) {
	if t == nil {
		return
	}
	var rec func(depth int, s *Span)
	rec = func(depth int, s *Span) {
		fn(depth, s)
		for _, c := range s.Children() {
			rec(depth+1, c)
		}
	}
	rec(0, t.root)
}

// Timeline renders the full trace: span tree with durations, attributes
// and planner notes — the EXPLAIN TRACE display.
func (t *QueryTrace) Timeline() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.Walk(func(depth int, s *Span) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s [%s]", s.Name(), s.Duration().Round(time.Microsecond))
		if d := s.Detail(); d != "" {
			b.WriteString("  " + d)
		}
		b.WriteByte('\n')
	})
	if e := t.Err(); e != "" {
		fmt.Fprintf(&b, "error: %s\n", e)
	}
	return b.String()
}

// Topology renders only the span-tree structure: names and nesting, with
// sibling spans sorted by name. Timings, attributes and notes are
// excluded, and the name sort removes the arrival-order nondeterminism of
// concurrently appended siblings — so for a fixed statement and data set
// the topology is identical at every parallelism width.
func (t *QueryTrace) Topology() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	var rec func(depth int, s *Span)
	rec = func(depth int, s *Span) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name())
		b.WriteByte('\n')
		kids := s.Children()
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Name() < kids[j].Name() })
		for _, c := range kids {
			rec(depth+1, c)
		}
	}
	rec(0, t.root)
	return b.String()
}

// TraceRing retains the last N finished traces for M_QUERY_TRACES.
type TraceRing struct {
	mu   sync.Mutex
	size int
	// hana:guardedby mu
	buf []*QueryTrace
	// hana:guardedby mu
	next int
	// hana:guardedby mu
	full bool
}

// DefaultTraceRingSize bounds the trace history an engine keeps for
// M_QUERY_TRACES.
const DefaultTraceRingSize = 32

// NewTraceRing creates a ring holding the last n traces (n<=0 uses
// DefaultTraceRingSize).
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRingSize
	}
	return &TraceRing{size: n, buf: make([]*QueryTrace, n)}
}

// Push appends a finished trace, evicting the oldest when full.
func (r *TraceRing) Push(t *QueryTrace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % r.size
	if r.next == 0 {
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshot returns the retained traces, oldest first.
func (r *TraceRing) Snapshot() []*QueryTrace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*QueryTrace
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	res := make([]*QueryTrace, 0, len(out))
	for _, t := range out {
		if t != nil {
			res = append(res, t)
		}
	}
	return res
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int {
	if r == nil {
		return 0
	}
	return r.size
}

type ctxKey int

const (
	traceKey ctxKey = iota
	spanKey
)

// ContextWithTrace attaches a trace to the context and makes its root span
// the current span.
func ContextWithTrace(ctx context.Context, t *QueryTrace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = context.WithValue(ctx, traceKey, t)
	return context.WithValue(ctx, spanKey, t.Root())
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *QueryTrace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey).(*QueryTrace)
	return t
}

// ContextWithSpan makes sp the current span: spans started from the
// returned context nest under it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}
