// Package mapreduce implements the Hadoop-style map-reduce engine that runs
// over the simulated HDFS: jobs with map and reduce functions and a per-task
// cleanup hook, block-granular input splits, a slot-limited task scheduler
// (the paper's cluster ran 240 map and 120 reduce tasks), a
// sort-shuffle-merge phase, counters, and a configurable per-job startup
// latency modeling the job submission overhead of a real cluster.
//
// Every part file the engine writes is a record file: RecordHeader, then per
// (key, value) pair `uvarint len(k) · k · uvarint len(v) · v`. Any other
// file (an ESP archive, a user's log) is read as text lines, each the pair
// ("", line). ScanPairs is the one reader of both.
package mapreduce

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hana/internal/faults"
	"hana/internal/hdfs"
	"hana/internal/obs"
	"hana/internal/value"
)

// MapFunc processes one input record, emitting key/value pairs; a text
// line arrives as ("", line). An error fails the task, and unless it is
// classified transient, the job.
type MapFunc func(k, v string, emit func(k, v string)) error

// MorselFunc processes the values of a morsel of at most MorselSize
// records of a split, in order, as MapFunc does one record. emit copies the
// pair it is given, so a mapper may build pairs in buffers it reuses; vals
// itself is reused for the next morsel.
type MorselFunc func(vals []string, emit func(k, v []byte)) error

// MorselSize bounds the records one MorselFunc call takes.
const MorselSize = 1024

// ReduceFunc processes one key group, emitting output pairs. An error fails
// the task as MapFunc's does.
type ReduceFunc func(key string, values []string, emit func(k, v string)) error

// Mapper is one map task attempt, as Hadoop's: Map on each record of the
// split, or MapMorsel on each morsel of them, then Cleanup, when set, once
// after the last, to emit what the task kept across records (an in-mapper
// combiner's table). What Map and MapMorsel emit counts as
// MapOutputRecords, what Cleanup emits as CombineOutRecords.
type Mapper struct {
	Map       MapFunc
	MapMorsel MorselFunc
	Cleanup   func(emit func(k, v string)) error
}

// TaggedInput pairs a set of inputs with their own mapper — the mechanism
// behind reduce-side joins, where each join side tags its records. Every
// task of the inputs shares the Mapper, which therefore keeps nothing
// across records.
type TaggedInput struct {
	Paths  []string
	Mapper Mapper
}

// Job describes one map-reduce job. Either Inputs and Map or NewMapper, or
// TaggedInputs is set.
type Job struct {
	Name   string
	Inputs []string // HDFS files or directories
	Output string   // HDFS directory for part files
	Map    MapFunc
	// NewMapper, instead of Map, builds every task attempt a fresh Mapper,
	// so what a task keeps across records never outlives its attempt.
	NewMapper    func() Mapper
	TaggedInputs []TaggedInput // alternative to Inputs/Map (reduce-side joins)
	Reduce       ReduceFunc    // nil = map-only job
	NumReducers  int           // 0 = engine default
}

// Config tunes the engine.
type Config struct {
	MapSlots        int           // concurrent map tasks (default 240, as in the paper's cluster)
	ReduceSlots     int           // concurrent reduce tasks (default 120)
	DefaultReducers int           // reducers per job when the job doesn't say (default 4)
	JobStartup      time.Duration // simulated job submission overhead
	TaskStartup     time.Duration // simulated per-task scheduling overhead
	// Faults injects failures at "mapreduce.map" (a map attempt, after its
	// records and before its Cleanup), "mapreduce.reduce" (a reduce
	// attempt) on top of the cluster's own "hdfs.*" sites; nil disables
	// injection.
	Faults *faults.Injector
	// Retry governs task re-scheduling and block re-reads; the zero value
	// takes the faults package defaults (3 attempts).
	Retry faults.RetryPolicy
}

func (c Config) withDefaults() Config {
	if c.MapSlots <= 0 {
		c.MapSlots = 240
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 120
	}
	if c.DefaultReducers <= 0 {
		c.DefaultReducers = 4
	}
	return c
}

// Counters aggregates task statistics.
type Counters struct {
	MapInputRecords   atomic.Int64
	MapOutputRecords  atomic.Int64
	CombineOutRecords atomic.Int64
	ReduceInputGroups atomic.Int64
	ReduceOutRecords  atomic.Int64
	TaskRetries       atomic.Int64
}

// merge folds a task-local scratch counter set into the engine totals.
// Tasks count into a scratch set and merge only on a successful attempt,
// so a re-scheduled task never double-counts.
func (c *Counters) merge(s *Counters) {
	c.MapInputRecords.Add(s.MapInputRecords.Load())
	c.MapOutputRecords.Add(s.MapOutputRecords.Load())
	c.CombineOutRecords.Add(s.CombineOutRecords.Load())
	c.ReduceInputGroups.Add(s.ReduceInputGroups.Load())
	c.ReduceOutRecords.Add(s.ReduceOutRecords.Load())
}

// JobResult reports one job's execution.
type JobResult struct {
	MapTasks    int
	ReduceTasks int
}

// Engine executes jobs on a cluster.
type Engine struct {
	cluster *hdfs.Cluster
	cfg     Config

	// Counters accumulate across jobs; JobsRun counts executed jobs.
	Counters Counters
	JobsRun  atomic.Int64
}

// NewEngine creates an engine over the cluster.
func NewEngine(c *hdfs.Cluster, cfg Config) *Engine {
	return &Engine{cluster: c, cfg: cfg.withDefaults()}
}

// retry returns the task retry policy with retries counted per job run.
func (e *Engine) retry() faults.RetryPolicy {
	p := e.cfg.Retry
	onRetry := p.OnRetry
	p.OnRetry = func(op string, attempt int, err error) {
		e.Counters.TaskRetries.Add(1)
		if onRetry != nil {
			onRetry(op, attempt, err)
		}
	}
	return p
}

// sleepCtx waits for d or until the context is canceled, mirroring
// RetryPolicy.DoCtx's backoff semantics: the simulated startup latencies
// must abort mid-sleep when the caller gives up, not run to completion.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// RunCtx executes the job synchronously under the caller's context and
// returns its result. The job leaves its output directory even when it
// writes no part file, as Hadoop's committer does. Cancellation interrupts
// the job- and task-startup delays, stops retry backoff between attempts
// (RetryPolicy.DoCtx), and fails the job with the context's error.
func (e *Engine) RunCtx(ctx context.Context, job *Job) (*JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	err := sleepCtx(ctx, e.cfg.JobStartup)
	var res *JobResult
	if err == nil {
		e.JobsRun.Add(1)
		res, err = e.run(ctx, job)
	}
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	e.publishObs(time.Since(start))
	return res, nil
}

func (e *Engine) run(ctx context.Context, job *Job) (*JobResult, error) {
	inputs := job.TaggedInputs
	if len(inputs) == 0 {
		inputs = []TaggedInput{{Paths: job.Inputs, Mapper: Mapper{Map: job.Map}}}
	}
	var splits []split
	for _, in := range inputs {
		newMapper := job.NewMapper
		if m := in.Mapper; m.Map != nil || m.MapMorsel != nil {
			newMapper = func() Mapper { return m }
		}
		var err error
		if splits, err = e.computeSplits(ctx, splits, in.Paths, newMapper); err != nil {
			return nil, err
		}
	}
	e.cluster.MkdirAll(job.Output)
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.DefaultReducers
	}
	if job.Reduce == nil {
		reducers = 0
	}

	// Map phase: each task's output, per partition.
	outs := make([][]part, len(splits))
	if err := e.runTasks(ctx, "map", len(splits), e.cfg.MapSlots, func(i int, c *Counters) (err error) {
		outs[i], err = e.mapTask(splits[i], reducers, c)
		return err
	}); err != nil {
		return nil, err
	}
	// Map-only, each task's output is a part-m file. Otherwise the shuffle:
	// each reducer sorts and groups its partition of every task's output.
	files, kind := make([][]byte, reducers), "r"
	if reducers == 0 {
		files, kind = make([][]byte, len(outs)), "m"
		for i, o := range outs {
			files[i] = o[0].data
		}
	}
	err := e.runTasks(ctx, "reduce", reducers, e.cfg.ReduceSlots, func(r int, c *Counters) (err error) {
		if err = e.cfg.Faults.Check("mapreduce.reduce"); err == nil {
			files[r], err = runReduce(outs, r, job.Reduce, c)
		}
		return err
	})
	for i := 0; err == nil && i < len(files); i++ {
		// WriteFile replaces the target, so a retried write never duplicates.
		name := fmt.Sprintf("%s/part-%s-%05d", job.Output, kind, i)
		err = e.retry().DoCtx(ctx, "hdfs.write", func() error { return e.cluster.WriteFile(name, files[i]) })
	}
	if err != nil {
		return nil, err
	}
	return &JobResult{MapTasks: len(splits), ReduceTasks: reducers}, nil
}

// runTasks runs a phase's n tasks, at most slots at a time, each after the
// simulated task startup, and returns the first failure in task order. An
// attempt counts into fresh counters, merged only once it succeeds, so a
// re-scheduled task never double-counts.
func (e *Engine) runTasks(ctx context.Context, phase string, n, slots int, attempt func(i int, c *Counters) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, slots)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var c *Counters
			err := sleepCtx(ctx, e.cfg.TaskStartup)
			if err == nil {
				err = e.retry().DoCtx(ctx, "mapreduce."+phase, func() error {
					c = &Counters{}
					return attempt(i, c)
				})
			}
			if err == nil {
				e.Counters.merge(c)
			} else {
				errs[i] = fmt.Errorf("%s task %d: %w", phase, i, err)
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

// split is one map task's input: whole records (or lines) of one file.
type split struct {
	path      string // the file it is cut from, named in its errors
	body      string
	text      bool
	newMapper func() Mapper
}

// part is a map task's output for one partition: n framed pairs, under
// RecordHeader for a map-only job, which writes it as it is.
type part struct {
	data []byte
	n    int
}

// add appends a pair to the partition its key hashes to.
func add[K, V string | []byte](parts []part, k K, v V) {
	p := &parts[hashKey(k)%uint64(len(parts))]
	p.data = AppendRecord(p.data, k, v)
	p.n++
}

// mapTask runs one attempt of a map task over its split, counting into c,
// and returns its output per partition.
func (e *Engine) mapTask(sp split, reducers int, c *Counters) ([]part, error) {
	parts := make([]part, max(reducers, 1))
	if reducers == 0 {
		parts[0].data = []byte(RecordHeader)
	}
	inputs, emitted := 0, &c.MapOutputRecords
	emit := func(k, v string) { add(parts, k, v); emitted.Add(1) }
	emitBytes := func(k, v []byte) { add(parts, k, v); emitted.Add(1) }
	m, vals := sp.newMapper(), make([]string, 0, MorselSize)
	err := scanBody(sp.body, sp.text, func(k, v string) error {
		inputs++
		if m.MapMorsel == nil {
			return m.Map(k, v, emit)
		}
		if vals = append(vals, v); len(vals) < MorselSize {
			return nil
		}
		err := m.MapMorsel(vals, emitBytes)
		vals = vals[:0]
		return err
	})
	if err == nil && len(vals) > 0 {
		err = m.MapMorsel(vals, emitBytes)
	}
	if err != nil {
		err = fmt.Errorf("input %s: %w", sp.path, err)
	} else {
		err = e.cfg.Faults.Check("mapreduce.map")
	}
	if err == nil && m.Cleanup != nil {
		emitted = &c.CombineOutRecords
		err = m.Cleanup(emit)
	}
	c.MapInputRecords.Add(int64(inputs))
	return parts, err
}

// publishObs mirrors the engine's running totals into the process-wide
// metrics registry as gauges, and the job's latency into a histogram.
func (e *Engine) publishObs(d time.Duration) {
	obs.Default.Counter("mapreduce.jobs_run").Inc()
	obs.Default.Histogram("mapreduce.job_us", nil).Observe(d.Microseconds())
	obs.Default.Gauge("mapreduce.map_input_records").Set(e.Counters.MapInputRecords.Load())
	obs.Default.Gauge("mapreduce.map_output_records").Set(e.Counters.MapOutputRecords.Load())
	obs.Default.Gauge("mapreduce.combine_out_records").Set(e.Counters.CombineOutRecords.Load())
	obs.Default.Gauge("mapreduce.reduce_input_groups").Set(e.Counters.ReduceInputGroups.Load())
	obs.Default.Gauge("mapreduce.reduce_out_records").Set(e.Counters.ReduceOutRecords.Load())
	obs.Default.Gauge("mapreduce.task_retries").Set(e.Counters.TaskRetries.Load())
}

// RunChainCtx executes a DAG expressed as an ordered job list (each job's
// inputs may be previous outputs) under the caller's context: cancellation
// interrupts the running job and stops the chain. Completed results are
// returned alongside the first error.
func (e *Engine) RunChainCtx(ctx context.Context, jobs []*Job) ([]*JobResult, error) {
	var out []*JobResult
	for _, j := range jobs {
		r, err := e.RunCtx(ctx, j)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// sortKey orders one reducer input pair: the first eight bytes of its key,
// zero-padded, then the whole key, then its arrival position — the map
// task's split index, then its emission order.
type sortKey struct {
	prefix uint64
	pos    int32
}

func keyPrefix(k string) uint64 {
	var b [8]byte
	copy(b[:], k)
	return binary.BigEndian.Uint64(b[:])
}

// runReduce sorts reducer r's input pairs by (key, arrival position) — one
// O(n log n) sort that keeps a key's values in split order, then emission
// order — and calls fn once per key group. It returns what fn emits as a
// record file, counting the groups and the pairs emitted into c.
func runReduce(outs [][]part, r int, fn ReduceFunc, c *Counters) ([]byte, error) {
	n := 0
	for _, o := range outs {
		n += o[r].n
	}
	keys, vals, order := make([]string, 0, n), make([]string, 0, n), make([]sortKey, 0, n)
	for _, o := range outs {
		_ = scanBody(string(o[r].data), false, func(k, v string) error {
			order = append(order, sortKey{keyPrefix(k), int32(len(keys))})
			keys, vals = append(keys, k), append(vals, v)
			return nil
		})
	}
	slices.SortFunc(order, func(a, b sortKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		return cmp.Or(strings.Compare(keys[a.pos], keys[b.pos]), cmp.Compare(a.pos, b.pos))
	})
	sorted := make([]string, n)
	for i, o := range order {
		sorted[i] = vals[o.pos]
	}
	out := []byte(RecordHeader)
	emit := func(k, v string) { out = AppendRecord(out, k, v); c.ReduceOutRecords.Add(1) }
	for i := 0; i < n; {
		k, j := keys[order[i].pos], i+1
		for j < n && keys[order[j].pos] == k {
			j++
		}
		c.ReduceInputGroups.Add(1)
		if err := fn(k, sorted[i:j:j], emit); err != nil {
			return nil, err
		}
		i = j
	}
	return out, nil
}

// computeSplits resolves inputs (files or directories) and appends to
// splits one split per block of each file, mapped by newMapper: as many
// whole records as a block holds on average. Only a file of several blocks
// is framed here, to count its records out; a task frames its own split.
func (e *Engine) computeSplits(ctx context.Context, splits []split, inputs []string, newMapper func() Mapper) ([]split, error) {
	for _, in := range inputs {
		fi, err := e.cluster.Stat(in)
		if err != nil {
			return nil, err
		}
		files := []*hdfs.FileInfo{fi}
		if fi.Size == 0 && len(fi.Blocks) == 0 { // a directory: its files
			files = e.cluster.List(in)
		}
		for _, fi := range files {
			// hdfs.ReadBlock fails over across surviving replicas; on top
			// of that each block read is retried (dead nodes may revive).
			data, err := e.cluster.ReadString(fi, func(b hdfs.BlockInfo) (data string, err error) {
				if err = e.retry().DoCtx(ctx, "hdfs.read", func() error {
					data, err = e.cluster.ReadBlock(b)
					return err
				}); err != nil {
					err = fmt.Errorf("input %s block %d: %w", fi.Path, b.ID, err)
				}
				return data, err
			})
			if err != nil {
				return nil, err
			}
			body, text := frame(data)
			if len(fi.Blocks) == 1 && body != "" { // one split, framed by its task
				splits = append(splits, split{fi.Path, body, text, newMapper})
				continue
			}
			var offs []int // each record's offset in body, then its end
			for rest := body; rest != ""; {
				offs = append(offs, len(body)-len(rest))
				if _, _, rest, err = nextPair(rest, text); err != nil {
					return nil, fmt.Errorf("input %s: %w", fi.Path, err)
				}
			}
			n, nb := len(offs), max(len(fi.Blocks), 1)
			offs, per := append(offs, len(body)), (n+nb-1)/nb
			for i := 0; i < n; i += per {
				splits = append(splits, split{fi.Path, body[offs[i]:offs[min(i+per, n)]], text, newMapper})
			}
		}
	}
	return splits, nil
}

// hashKey is FNV-1a over the key's bytes.
func hashKey[K string | []byte](k K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return h
}

// RecordHeader opens a record file. No text file starts with a NUL byte.
const RecordHeader = "\x00REC"

// AppendRecord appends one framed (key, value) pair to a record file that
// starts with RecordHeader.
func AppendRecord[K, V string | []byte](buf []byte, k K, v V) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(k)))
	buf = append(buf, k...)
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

var errTruncated = errors.New("mapreduce: truncated record")

// ScanPairs calls fn on each pair of a file in order: a record file's
// framed pairs, or any other file's lines as ("", line), a final newline
// dropped. Keys and values are substrings of data. A record file that ends
// inside a record is an error, as is the first error fn returns.
func ScanPairs(data string, fn func(k, v string) error) error {
	body, text := frame(data)
	return scanBody(body, text, fn)
}

// frame strips a record file's header; a text file is all lines.
func frame(data string) (body string, text bool) {
	body, rec := strings.CutPrefix(data, RecordHeader)
	return body, !rec
}

// nextPair cuts the first pair off a framed body: a record, or a line
// without its newline.
func nextPair(body string, text bool) (k, v, rest string, err error) {
	if text {
		v, rest, _ = strings.Cut(body, "\n")
		return "", v, rest, nil
	}
	k, rest, ok := cutField(body)
	if ok {
		v, rest, ok = cutField(rest)
	}
	if !ok {
		return "", "", "", errTruncated
	}
	return k, v, rest, nil
}

// cutField cuts one length-prefixed field off the front of s.
func cutField(s string) (f, rest string, ok bool) {
	n, w := value.Uvarint(s)
	if w <= 0 || n > uint64(len(s)-w) {
		return "", "", false
	}
	return s[w : w+int(n)], s[w+int(n):], true
}

// scanBody calls fn on each pair of a framed body.
func scanBody(body string, text bool, fn func(k, v string) error) error {
	for body != "" {
		k, v, rest, err := nextPair(body, text)
		if err == nil {
			err = fn(k, v)
		}
		if err != nil {
			return err
		}
		body = rest
	}
	return nil
}

// ReadDir calls fn on every pair of every file under dir, in listing order,
// through ScanPairs.
func ReadDir(c *hdfs.Cluster, dir string, fn func(k, v string) error) error {
	for _, fi := range c.List(dir) {
		data, err := c.ReadString(fi, c.ReadBlock)
		if err != nil {
			return err
		}
		if err := ScanPairs(data, fn); err != nil {
			return fmt.Errorf("%s: %w", fi.Path, err)
		}
	}
	return nil
}
