package esp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Window is a continuous query over a stream with a CCL retention clause.
// Raw matching events are retained per KEEP; the (optionally aggregated)
// window content is computed on read, so HANA-join readers always see the
// current state.
type Window struct {
	name   string
	source *Stream
	keep   *sqlparse.KeepClause

	where expr.Expr
	// blk is the query's back end over the stream's rows, bound once here so
	// a column the stream lacks is an error at creation.
	blk *exec.Block

	mu sync.Mutex
	// buf retains raw events in arrival order; live region is buf[start:].
	// hana:guardedby mu
	buf []Event
	// start is the eviction cursor; compacted lazily so offer() stays
	// amortized O(1).
	// hana:guardedby mu
	start int
	// hana:guardedby mu
	last time.Time
}

// CreateWindow compiles a CCL continuous query:
//
//	CREATE WINDOW name AS SELECT … FROM stream [WHERE …] [GROUP BY …] KEEP …
//
// expressed here as the SELECT text.
func (p *Project) CreateWindow(name, ccl string) (*Window, error) {
	st, err := sqlparse.Parse(ccl)
	if err != nil {
		return nil, fmt.Errorf("esp: %w", err)
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("esp: window definition must be a SELECT")
	}
	if sel.Keep == nil {
		return nil, fmt.Errorf("esp: window definition requires a KEEP clause")
	}
	ref, ok := sel.From.(*sqlparse.TableRef)
	if !ok {
		return nil, fmt.Errorf("esp: window source must be a single stream")
	}
	src, ok := p.Stream(ref.Name())
	if !ok {
		return nil, fmt.Errorf("esp: stream %s not found", ref.Name())
	}
	w := &Window{name: name, source: src, keep: sel.Keep}
	if w.blk, err = exec.AnalyzeBlock(sel, src.schema.Qualify(ref.Binding())); err != nil {
		return nil, fmt.Errorf("esp: %w", err)
	}
	if sel.Where != nil {
		pred := expr.Clone(sel.Where)
		if err := expr.Bind(pred, src.schema); err != nil {
			return nil, err
		}
		w.where = pred
	}
	p.mu.Lock()
	key := strings.ToUpper(name)
	if _, exists := p.windows[key]; exists {
		p.mu.Unlock()
		return nil, fmt.Errorf("esp: window %s already exists", name)
	}
	p.windows[key] = w
	p.mu.Unlock()
	src.mu.Lock()
	src.windows = append(src.windows, w)
	src.mu.Unlock()
	return w, nil
}

// offer ingests one event (filtered, retained).
func (w *Window) offer(ev Event) error {
	if w.where != nil {
		keep, err := expr.Truthy(w.where, ev.Row)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, Event{Time: ev.Time, Row: ev.Row.Clone()})
	if ev.Time.After(w.last) {
		w.last = ev.Time
	}
	w.evictLocked(ev.Time)
	return nil
}

func (w *Window) evictLocked(now time.Time) {
	if w.keep.Unit == sqlparse.KeepRows {
		if over := (len(w.buf) - w.start) - int(w.keep.N); over > 0 {
			w.start += over
		}
	} else {
		horizon := now.Add(-time.Duration(w.keep.Duration()) * time.Microsecond)
		for w.start < len(w.buf) && w.buf[w.start].Time.Before(horizon) {
			w.start++
		}
	}
	// Amortized compaction: reclaim the dead prefix once it dominates.
	if w.start > 1024 && w.start*2 > len(w.buf) {
		live := len(w.buf) - w.start
		copy(w.buf, w.buf[w.start:])
		for i := live; i < len(w.buf); i++ {
			w.buf[i] = Event{} // release retained rows
		}
		w.buf = w.buf[:live]
		w.start = 0
	}
}

// RawCount reports retained raw events (after filtering and eviction).
func (w *Window) RawCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf) - w.start
}

// Rows computes the current window content at the given time: time-based
// retention is applied, then the CCL query's back end — its aggregate on the
// shared hash aggregate, then exec.Block.Finish.
// This is the surface the HANA-join integration reads (use case 3).
func (w *Window) Rows(now time.Time) (*value.Rows, error) {
	w.mu.Lock()
	w.evictLocked(now)
	live := w.buf[w.start:]
	raw := make([]value.Row, len(live))
	for i, ev := range live {
		raw[i] = ev.Row
	}
	w.mu.Unlock()

	in := exec.RowRel(w.source.schema, raw, nil)
	if w.blk.Aggregates() {
		agg := &exec.ParallelHashAggregate{In: in, GroupBy: w.blk.GroupBy, Aggs: w.blk.Aggs, Out: w.blk.AggSchema}
		var err error
		if in, err = agg.Run(); err != nil {
			return nil, err
		}
	}
	out, _, err := w.blk.Finish(nil, in, nil)
	if err != nil {
		return nil, err
	}
	return &value.Rows{Schema: out.Schema, Data: out.AllRows()}, nil
}

// Forward pushes the current window content into a sink (use case 1 for
// aggregated windows: periodic forwarding of pre-aggregated state).
func (w *Window) Forward(now time.Time, sink Sink) error {
	rows, err := w.Rows(now)
	if err != nil {
		return err
	}
	return sink.Consume(rows.Data, rows.Schema)
}

// Pattern detects an ordered sequence of predicate matches within a time
// bound and fires an action — the paper's "detect predefined patterns in
// the event stream and trigger corresponding actions".
type Pattern struct {
	name   string
	steps  []expr.Expr
	within time.Duration
	action func(matched []Event)

	mu sync.Mutex
	// hana:guardedby mu
	partial [][]Event
	// hana:guardedby mu
	matches int64
}

// MatchCount reports how many times the pattern has fired.
func (pat *Pattern) MatchCount() int64 {
	pat.mu.Lock()
	defer pat.mu.Unlock()
	return pat.matches
}

// CreatePattern compiles step filter expressions against the stream schema
// and attaches the pattern.
func (p *Project) CreatePattern(name, stream string, stepFilters []string, within time.Duration, action func([]Event)) (*Pattern, error) {
	s, ok := p.Stream(stream)
	if !ok {
		return nil, fmt.Errorf("esp: stream %s not found", stream)
	}
	if len(stepFilters) == 0 {
		return nil, fmt.Errorf("esp: pattern needs at least one step")
	}
	pat := &Pattern{name: name, within: within, action: action}
	for _, f := range stepFilters {
		e, err := sqlparse.ParseExpr(f)
		if err != nil {
			return nil, fmt.Errorf("esp: pattern step: %w", err)
		}
		if err := expr.Bind(e, s.schema); err != nil {
			return nil, err
		}
		pat.steps = append(pat.steps, e)
	}
	s.mu.Lock()
	s.patterns = append(s.patterns, pat)
	s.mu.Unlock()
	return pat, nil
}

func (pat *Pattern) offer(ev Event) {
	complete := pat.advance(ev)
	// Fire actions after releasing pat.mu: an action that publishes back
	// into the stream re-enters offer, and sync.Mutex is not reentrant.
	for _, m := range complete {
		if pat.action != nil {
			pat.action(m)
		}
	}
}

// advance updates partial matches under the lock and returns completed
// sequences.
func (pat *Pattern) advance(ev Event) [][]Event {
	pat.mu.Lock()
	defer pat.mu.Unlock()
	// Expire partial matches outside the window.
	horizon := ev.Time.Add(-pat.within)
	kept := pat.partial[:0]
	for _, pm := range pat.partial {
		if !pm[0].Time.Before(horizon) {
			kept = append(kept, pm)
		}
	}
	pat.partial = kept
	// Advance existing partials.
	var complete [][]Event
	for i, pm := range pat.partial {
		next := pat.steps[len(pm)]
		if ok, _ := expr.Truthy(next, ev.Row); ok {
			extended := append(append([]Event{}, pm...), ev)
			if len(extended) == len(pat.steps) {
				complete = append(complete, extended)
				pat.partial[i] = nil
			} else {
				pat.partial[i] = extended
			}
		}
	}
	kept = pat.partial[:0]
	for _, pm := range pat.partial {
		if pm != nil {
			kept = append(kept, pm)
		}
	}
	pat.partial = kept
	// Start a new partial.
	if ok, _ := expr.Truthy(pat.steps[0], ev.Row); ok {
		if len(pat.steps) == 1 {
			complete = append(complete, []Event{ev})
		} else {
			pat.partial = append(pat.partial, []Event{ev})
		}
	}
	pat.matches += int64(len(complete))
	return complete
}
