// Package esp implements the event stream processor of §3.2 — the
// platform's substitute for SAP Sybase ESP. A Project hosts input streams
// and continuous queries (windows) written in the CCL dialect (SELECT …
// FROM stream [WHERE …] [GROUP BY …] KEEP n ROWS|SECONDS|MINUTES).
//
// The three integration patterns of the paper are supported:
//
//  1. Prefilter/pre-aggregate and forward — subscribe a sink to a stream or
//     window and push its rows into a HANA table.
//  2. ESP join — reference tables loaded from HANA are joined to events as
//     they arrive, enriching the stream.
//  3. HANA join — a window exposes its current content as a table the HANA
//     engine can read mid-query.
//
// As in the paper, no transactional guarantees are provided on streams.
package esp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hana/internal/expr"
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// Event is one stream record with its event time.
type Event struct {
	Time time.Time
	Row  value.Row
}

// Sink consumes forwarded rows (use case 1: "forward … permanently store
// the window content under the control of the database system").
type Sink interface {
	Consume(rows []value.Row, schema *value.Schema) error
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(rows []value.Row, schema *value.Schema) error

// Consume implements Sink.
func (f SinkFunc) Consume(rows []value.Row, schema *value.Schema) error { return f(rows, schema) }

// Stream is a typed event stream.
type Stream struct {
	name   string
	schema *value.Schema

	mu sync.Mutex
	// hana:guardedby mu
	windows []*Window
	// hana:guardedby mu
	sinks []sinkBinding
	// hana:guardedby mu
	patterns []*Pattern
	// hana:guardedby mu
	enriched []*derivedBinding
	// hana:guardedby mu
	count int64
}

type sinkBinding struct {
	pred expr.Expr // nil = all events
	sink Sink
}

type derivedBinding struct {
	out    *Stream
	ref    *refTable
	keyIn  expr.Expr
	refKey int
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Schema returns the event schema.
func (s *Stream) Schema() *value.Schema { return s.schema }

// EventCount returns the number of events published.
func (s *Stream) EventCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// refTable is a reference snapshot pushed from the database (use case 2:
// "slowly changing data is pushed during CCL query execution from the SAP
// HANA store into the ESP and there joined with raw data elements").
type refTable struct {
	name   string
	schema *value.Schema
	keyOrd int
	mu     sync.RWMutex
	// hana:guardedby mu
	snap struct {
		keys  []value.Value // the distinct key values, under index
		index value.Index
		rows  [][]value.Row // rows[e]: the rows with keys[e], in load order
	}
}

func (r *refTable) lookup(v value.Value) []value.Row {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, _ := r.snap.index.Find(r.snap.keys, v); e >= 0 {
		return r.snap.rows[e]
	}
	return nil
}

// Project is one ESP deployment unit holding streams, windows, reference
// tables and patterns.
type Project struct {
	mu sync.Mutex
	// hana:guardedby mu
	streams map[string]*Stream
	// hana:guardedby mu
	windows map[string]*Window
	// hana:guardedby mu
	refs map[string]*refTable
}

// NewProject creates an empty project.
func NewProject() *Project {
	return &Project{
		streams: map[string]*Stream{},
		windows: map[string]*Window{},
		refs:    map[string]*refTable{},
	}
}

// CreateInputStream declares a stream (CCL: CREATE INPUT STREAM).
func (p *Project) CreateInputStream(name string, schema *value.Schema) (*Stream, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := strings.ToUpper(name)
	if _, ok := p.streams[key]; ok {
		return nil, fmt.Errorf("esp: stream %s already exists", name)
	}
	s := &Stream{name: name, schema: schema.Clone()}
	p.streams[key] = s
	return s, nil
}

// Stream resolves a stream.
func (p *Project) Stream(name string) (*Stream, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.streams[strings.ToUpper(name)]
	return s, ok
}

// Window resolves a window.
func (p *Project) Window(name string) (*Window, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.windows[strings.ToUpper(name)]
	return w, ok
}

// LoadReferenceTable pushes (or replaces) a reference snapshot keyed by the
// named column.
func (p *Project) LoadReferenceTable(name string, schema *value.Schema, rows []value.Row, keyCol string) error {
	keyOrd := schema.Find(keyCol)
	if keyOrd < 0 {
		return fmt.Errorf("esp: key column %s not in reference schema", keyCol)
	}
	rt := &refTable{name: name, schema: schema.Clone(), keyOrd: keyOrd}
	for _, r := range rows {
		s, k := &rt.snap, r[keyOrd]
		e, p := s.index.Find(s.keys, k)
		if e < 0 {
			e = s.index.Insert(p)
			s.keys, s.rows = append(s.keys, k), append(s.rows, nil)
		}
		s.rows[e] = append(s.rows[e], r.Clone())
	}
	p.mu.Lock()
	p.refs[strings.ToUpper(name)] = rt
	p.mu.Unlock()
	return nil
}

// Publish pushes one event into a stream at the given event time,
// synchronously updating every attached window, sink, enrichment and
// pattern.
func (p *Project) Publish(stream string, row value.Row, ts time.Time) error {
	s, ok := p.Stream(stream)
	if !ok {
		return fmt.Errorf("esp: stream %s not found", stream)
	}
	return s.publish(Event{Time: ts, Row: row})
}

func (s *Stream) publish(ev Event) error {
	if len(ev.Row) != s.schema.Len() {
		return fmt.Errorf("esp: event arity %d does not match stream %s%s", len(ev.Row), s.name, s.schema)
	}
	s.mu.Lock()
	s.count++
	windows := s.windows
	sinks := s.sinks
	patterns := s.patterns
	enriched := s.enriched
	s.mu.Unlock()
	for _, w := range windows {
		if err := w.offer(ev); err != nil {
			return err
		}
	}
	for _, sb := range sinks {
		if sb.pred != nil {
			keep, err := expr.Truthy(sb.pred, ev.Row)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
		}
		if err := sb.sink.Consume([]value.Row{ev.Row}, s.schema); err != nil {
			return err
		}
	}
	for _, pat := range patterns {
		pat.offer(ev)
	}
	for _, d := range enriched {
		kv, err := d.keyIn.Eval(ev.Row)
		if err != nil {
			return err
		}
		for _, ref := range d.ref.lookup(kv) {
			combined := append(append(value.Row{}, ev.Row...), ref...)
			if err := d.out.publish(Event{Time: ev.Time, Row: combined}); err != nil {
				return err
			}
		}
	}
	return nil
}

// SubscribeSink attaches a sink with an optional CCL filter expression
// (use case 1, prefilter-and-forward).
func (p *Project) SubscribeSink(stream string, filter string, sink Sink) error {
	s, ok := p.Stream(stream)
	if !ok {
		return fmt.Errorf("esp: stream %s not found", stream)
	}
	var pred expr.Expr
	if filter != "" {
		e, err := sqlparse.ParseExpr(filter)
		if err != nil {
			return fmt.Errorf("esp: filter: %w", err)
		}
		if err := expr.Bind(e, s.schema); err != nil {
			return err
		}
		pred = e
	}
	s.mu.Lock()
	s.sinks = append(s.sinks, sinkBinding{pred: pred, sink: sink})
	s.mu.Unlock()
	return nil
}

// CreateEnrichedStream derives a new stream joining each event against a
// reference table on equality (use case 2, "ESP join": "city names are
// attached to raw geo-spatial information coming from GPS sensors").
func (p *Project) CreateEnrichedStream(name, source, refName, eventKey string) (*Stream, error) {
	s, ok := p.Stream(source)
	if !ok {
		return nil, fmt.Errorf("esp: stream %s not found", source)
	}
	p.mu.Lock()
	rt, ok := p.refs[strings.ToUpper(refName)]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("esp: reference table %s not loaded", refName)
	}
	key, err := sqlparse.ParseExpr(eventKey)
	if err != nil {
		return nil, err
	}
	if err := expr.Bind(key, s.schema); err != nil {
		return nil, err
	}
	out, err := p.CreateInputStream(name, s.schema.Concat(rt.schema))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enriched = append(s.enriched, &derivedBinding{out: out, ref: rt, keyIn: key, refKey: rt.keyOrd})
	s.mu.Unlock()
	return out, nil
}
