package main

import (
	"strings"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Times are nanoseconds
// since the recorder started; Parent is the index of the causing span (-1
// for a root); spans of one operation share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. It is the benchmark's
// own tracer: spans are taken in this directory around calls into the
// program, never inside it. While off, begin returns -1 and records nothing,
// which is the state every end-to-end metric is measured in.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	ops   int
	root  int // the operation span in flight (-1 = none); one client, so one at a time
}

// probePrefix marks the spans of layer probes; everything else belongs to a
// workload operation.
const probePrefix = "probe:"

func newRecorder() *recorder { return &recorder{t0: time.Now(), root: -1} }

func (r *recorder) set(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// beginOp opens the root span of one operation.
func (r *recorder) beginOp(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	r.ops++
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: -1, Op: r.ops})
	r.root = len(r.spans) - 1
	return r.root
}

// beginChild opens a span caused by the operation in flight.
func (r *recorder) beginChild(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on || r.root < 0 {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), Parent: r.root, Op: r.spans[r.root].Op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	if id == r.root {
		r.root = -1
	}
	r.mu.Unlock()
}

// rootTimes sums, over the root spans of workload operations (probe spans
// excluded), the duration and the self time: duration minus the part child
// spans cover. Children of one operation may overlap (parallel remote
// fetches), so the covered part is the union of their intervals.
func (r *recorder) rootTimes() (total, self time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range r.spans {
		if s.Parent >= 0 || strings.HasPrefix(s.Name, probePrefix) {
			continue
		}
		covered, hi := int64(0), s.Start
		for _, c := range children[i] { // recorded in start order
			lo := c.Start
			if lo < hi {
				lo = hi
			}
			if c.End > lo {
				covered += c.End - lo
				hi = c.End
			}
		}
		total += time.Duration(s.End - s.Start)
		self += time.Duration(s.End - s.Start - covered)
	}
	return total, self
}
