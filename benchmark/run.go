package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"hana/internal/engine"
	"hana/internal/value"
)

// scale fixes the input sizes. Defaults are sized so that 22 runs of every
// workload, each with `setups` set-ups, fit the contract's time cap on a
// 2-core sandbox; the smoke test shrinks them.
type scale struct {
	tpchSF    float64 // tpch_local and tpch_dist2 (same data, so the two are comparable)
	fedSF     float64 // tpch_fed
	probeSF   float64 // inputs of the layer probes
	lifeRows  int     // hybrid_lifecycle bulk-loaded rows
	lifeTx    int     // five-row INSERT transactions per cycle
	lifeAge   int     // rows flagged and aged per cycle
	setups    int     // set-ups per run; setup_s and resident_mb are medians over them
	minPasses int     // never fewer samples per median than this
	// jobStartup is the simulated MapReduce job-submission latency (15 ms in
	// EXPERIMENTS.md).
	jobStartup time.Duration
}

var defaultScale = scale{
	tpchSF: 0.02, fedSF: 0.005, probeSF: 0.01,
	lifeRows: 600_000, lifeTx: 200, lifeAge: 2000,
	setups: 3, minPasses: 5, jobStartup: 15 * time.Millisecond,
}

// params is one invocation.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string    // directory for data dirs, WAL files and extended storage
	rec      *recorder // the run's span recorder, for seams installed at set-up
	sc       scale
}

// instance is one loaded system under test.
type instance interface {
	// warm runs the untimed warm-up pass that also fixes the correctness
	// oracle for every later pass.
	warm(r *run) error
	// pass runs the workload's operation mix once.
	pass(r *run) error
	// counters returns cumulative counters that must repeat exactly for a
	// fixed seed; the runner reports their delta over the first timed pass.
	counters() map[string]int64
	close() error
}

// The lifecycle instance alone has more to say: its state bounds the number
// of passes, and after the last one it closes and recovers the engine
// (verdicts count, samples do not).
type (
	bounded  interface{ maxPasses() int }
	finisher interface{ finish(r *run) error }
)

type workloadDef struct {
	name  string
	why   string
	setup func(p params) (instance, error)
}

var workloads = []workloadDef{
	{"tpch_local", "12 TPC-H queries on an all-local engine: colstore, expr and exec do the work, so an executor or kernel change shows here", setupTPCHLocal},
	{"tpch_dist2", "same data and queries over 2 worker shards: the coordinator/worker exchange dominates, an executor-only change predicts no move", setupTPCHDist2},
	{"tpch_fed", "paper 4.4 set-up: five tables at Hive, each query normal, materializing and cached, so remote path and cache path are both priced", setupTPCHFed},
	{"hybrid_lifecycle", "writes beside reads on hot+cold storage: WAL, delta, 2PC aging, cold deletes; cold_full exceeds the chunk cache, cold_window fits", setupLifecycle},
}

// sampleSet holds latency samples in ms per operation class, classes in
// first-seen order.
type sampleSet struct {
	classes []string
	ms      map[string][]float64
}

func (s *sampleSet) add(class string, d time.Duration) {
	if s.ms == nil {
		s.ms = map[string][]float64{}
	}
	if _, ok := s.ms[class]; !ok {
		s.classes = append(s.classes, class)
	}
	s.ms[class] = append(s.ms[class], float64(d.Nanoseconds())/1e6)
}

// passes is the number of passes sampled: every workload has a class that
// runs once per pass, so it is the smallest sample count.
func (s *sampleSet) passes() int {
	n := 0
	for i, c := range s.classes {
		if i == 0 || len(s.ms[c]) < n {
			n = len(s.ms[c])
		}
	}
	return n
}

// suite returns Σ over the matching classes of (executions per pass × median
// latency): the cost of one pass with every operation at its median.
func (s *sampleSet) suite(match func(class string) bool) float64 {
	n, sum := s.passes(), 0.0
	for _, c := range s.classes {
		if n > 0 && (match == nil || match(c)) {
			sum += float64(len(s.ms[c])/n) * median(s.ms[c])
		}
	}
	return sum
}

func (s *sampleSet) medians() []float64 {
	out := make([]float64, len(s.classes))
	for i, c := range s.classes {
		out[i] = median(s.ms[c])
	}
	return out
}

// slowdownP90 pools sample ÷ class median over every operation.
func (s *sampleSet) slowdownP90() (float64, int) {
	var pool []float64
	for _, c := range s.classes {
		m := median(s.ms[c])
		for _, x := range s.ms[c] {
			pool = append(pool, x/m)
		}
	}
	return percentile(pool, 0.9), len(pool)
}

// run accumulates one workload's samples and verdicts.
type run struct {
	p   params
	ctx context.Context
	rec *recorder

	samples   sampleSet // recorder off: the source of every end-to-end metric
	traced    sampleSet // recorder on
	oracle    map[string]digest
	attempted int
	failed    int
	failures  []string
	timing    bool               // false during warm-up: verdicts count, samples do not
	extraS    map[string]float64 // once-per-run durations in seconds (savepoint_s, recover_s)
	stats     engine.ExecStats   // summed over timed operations
}

func newRun(p params) *run {
	return &run{p: p, ctx: context.Background(), rec: newRecorder(), oracle: map[string]digest{}, extraS: map[string]float64{}}
}

func (r *run) fail(class string, err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", class, err))
	}
}

// op times one operation. The digest of the rows it returns is compared with
// the oracle entry `key` ("" = nothing to compare); the first operation to
// name a key defines it. Rendering and hashing happen after the clock stops.
func (r *run) op(class, key string, fn func() (*engine.Result, error)) *engine.Result {
	r.attempted++
	id := r.rec.beginOp(class)
	start := time.Now()
	res, err := fn()
	d := time.Since(start)
	r.rec.end(id)
	if err != nil {
		r.fail(class, err)
		return nil
	}
	if key != "" {
		got := digestRows(res.Rows)
		if want, ok := r.oracle[key]; !ok {
			r.oracle[key] = got
		} else if got != want {
			r.fail(class, fmt.Errorf("result digest %d rows/%016x, oracle %q has %d rows/%016x", got.Rows, got.Hash, key, want.Rows, want.Hash))
		}
	}
	if r.timing {
		if id >= 0 {
			r.traced.add(class, d)
		} else {
			r.samples.add(class, d)
		}
		r.stats.RowsScanned += res.Stats.RowsScanned
		r.stats.Morsels += res.Stats.Morsels
	}
	return res
}

// expect pins an oracle entry computed by the input generator itself.
func (r *run) expect(key string, rows ...value.Row) { r.oracle[key] = digestRows(rows) }

// result is what one workload run reports; it is also the -out schema.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Passes    int              `json:"passes"`
	Attempted int              `json:"attempted_ops"`
	Failed    int              `json:"failed_ops"`
	Failures  []string         `json:"failures,omitempty"`
	EndToEnd  []metric         `json:"end_to_end"`
	Breakdown []metric         `json:"breakdown"` // printed, not gated
	PerLayer  []metric         `json:"per_layer,omitempty"`
	Counts    map[string]int64 `json:"counts"`
	// Samples holds every untraced latency sample per operation class, in
	// ms, so a reader of an -out file can recompute any statistic.
	Samples map[string][]float64 `json:"samples_ms"`
}

// metric is one named value with its unit, sample count and quartiles.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

func medianMetric(name, unit string, xs []float64) metric {
	q1, q3 := quartiles(xs)
	return metric{Name: name, Unit: unit, Value: median(xs), N: len(xs), Q1: q1, Q3: q3}
}

func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runWorkload sets the workload up p.sc.setups times (medians give setup_s
// and resident_mb), keeps the last instance, warms it, and then runs passes
// for p.seconds. In a traced run passes alternate recorder off / on, so the
// same process yields the layer numbers and the tracing overhead. It returns
// the spans recorded.
func runWorkload(def workloadDef, p params) (*result, []span, error) {
	if err := os.MkdirAll(p.scratch, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(p.scratch, def.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	r := newRun(p)
	var inst instance
	defer func() {
		if inst != nil {
			_ = inst.close() // error paths only; the success path checks close below
		}
	}()
	var setupS, resident []float64
	for i := 0; i < p.sc.setups; i++ {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return nil, nil, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		sp := p
		sp.rec = r.rec
		sp.scratch = filepath.Join(dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		if inst, err = def.setup(sp); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		resident = append(resident, residentMB())
	}

	if err := inst.warm(r); err != nil {
		return nil, nil, fmt.Errorf("%s warm-up: %w", def.name, err)
	}
	r.timing = true

	first := inst.counters()
	var counts map[string]int64
	var allocs, allocMB []float64
	passes := 0
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for passes < p.sc.minPasses || time.Now().Before(deadline) {
		r.rec.set(p.trace && passes%2 == 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := inst.pass(r); err != nil {
			return nil, nil, fmt.Errorf("%s pass %d: %w", def.name, passes, err)
		}
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if passes == 0 {
			counts = counterDelta(inst.counters(), first)
		}
		passes++
		if lim, ok := inst.(bounded); ok && passes >= lim.maxPasses() {
			break
		}
	}
	r.rec.set(false)
	delta := counterDelta(inst.counters(), first)
	r.timing = false
	if f, ok := inst.(finisher); ok {
		if err := f.finish(r); err != nil {
			return nil, nil, fmt.Errorf("%s finish: %w", def.name, err)
		}
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}

	n := r.samples.passes()
	res := &result{
		Workload: def.name, Seed: p.seed, Trace: p.trace, Passes: passes,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		EndToEnd: []metric{
			medianMetric("setup_s", "s", setupS),
			medianMetric("resident_mb", "MB", resident),
			{Name: "suite_ms", Unit: "ms", Value: r.samples.suite(nil), N: n},
			{Name: "geomean_ms", Unit: "ms", Value: geomean(r.samples.medians()), N: n},
		},
		Breakdown: breakdown(def.name, r),
		Counts:    counts, Samples: r.samples.ms,
	}
	if p.trace {
		if res.PerLayer, err = perLayer(r, p, dir, passes, allocs, allocMB, delta); err != nil {
			return nil, nil, err
		}
	}
	return res, r.rec.spans, nil
}

func counterDelta(now, before map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(now))
	for k, v := range now {
		out[k] = v - before[k]
	}
	return out
}

// breakdown lists what is printed but not gated: the named sub-suites of the
// workload, every class median, and the pooled tail ratio.
func breakdown(name string, r *run) []metric {
	s := &r.samples
	var out []metric
	switch name {
	case "tpch_fed":
		for _, mode := range []string{"normal", "materialize", "cached"} {
			suffix := "/" + mode
			out = append(out, metric{
				Name: mode + "_suite_ms", Unit: "ms", N: s.passes(),
				Value: s.suite(func(c string) bool { return strings.HasSuffix(c, suffix) }),
			})
		}
	case "hybrid_lifecycle":
		out = append(out, lifecycleBreakdown(r)...)
	}
	for _, k := range sortedKeys(r.extraS) {
		out = append(out, metric{Name: k, Unit: "s", Value: r.extraS[k], N: 1})
	}
	for _, c := range s.classes {
		out = append(out, medianMetric("median_ms@"+c, "ms", s.ms[c]))
	}
	p90, n := s.slowdownP90()
	return append(out, metric{Name: "slowdown_p90", Unit: "ratio", Value: p90, N: n})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
