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

// ReduceFunc processes one key group, emitting output pairs. An error fails
// the task as MapFunc's does.
type ReduceFunc func(key string, values []string, emit func(k, v string)) error

// Mapper is one map task attempt, as Hadoop's: Map on each record of the
// split, then Cleanup, when set, once after the last, to emit what the task
// kept across records (an in-mapper combiner's table). What Cleanup emits
// counts as CombineOutRecords.
type Mapper struct {
	Map     MapFunc
	Cleanup func(emit func(k, v string)) error
}

// TaggedInput pairs a set of inputs with their own mapper — the mechanism
// behind reduce-side joins, where each join side tags its records.
type TaggedInput struct {
	Paths []string
	Map   MapFunc
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

// Pair is one (key, value) record.
type Pair struct{ K, V string }

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
	if err := sleepCtx(ctx, e.cfg.JobStartup); err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	e.JobsRun.Add(1)

	inputs := job.TaggedInputs
	if len(inputs) == 0 {
		inputs = []TaggedInput{{Paths: job.Inputs, Map: job.Map}}
	}
	type taggedSplit struct {
		pairs     []Pair
		newMapper func() Mapper
	}
	var splits []taggedSplit
	for _, in := range inputs {
		ss, err := e.computeSplits(ctx, in.Paths)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", job.Name, err)
		}
		newMapper := job.NewMapper
		if in.Map != nil {
			newMapper = func() Mapper { return Mapper{Map: in.Map} }
		}
		for _, s := range ss {
			splits = append(splits, taggedSplit{s, newMapper})
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

	// Map phase: each task produces per-partition output.
	type mapOut struct {
		parts [][]Pair
		err   error
	}
	outs := make([]mapOut, len(splits))
	sem := make(chan struct{}, e.cfg.MapSlots)
	var wg sync.WaitGroup
	for i, split := range splits {
		wg.Add(1)
		go func(i int, pairs []Pair, newMapper func() Mapper) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := sleepCtx(ctx, e.cfg.TaskStartup); err != nil {
				outs[i] = mapOut{err: err}
				return
			}
			// Each attempt is a fresh task execution — a new Mapper on
			// scratch state; counters merge only once the attempt
			// succeeds, so a re-scheduled task never double-counts.
			var parts [][]Pair
			var scratch *Counters
			err := e.retry().DoCtx(ctx, "mapreduce.map", func() error {
				scratch = &Counters{}
				parts = make([][]Pair, max(reducers, 1))
				emitted := &scratch.MapOutputRecords
				emit := func(k, v string) {
					p := 0
					if reducers > 0 {
						p = int(hashKey(k) % uint64(reducers))
					}
					parts[p] = append(parts[p], Pair{k, v})
					emitted.Add(1)
				}
				m := newMapper()
				for _, p := range pairs {
					scratch.MapInputRecords.Add(1)
					if err := m.Map(p.K, p.V, emit); err != nil {
						return err
					}
				}
				if err := e.cfg.Faults.Check("mapreduce.map"); err != nil || m.Cleanup == nil {
					return err
				}
				emitted = &scratch.CombineOutRecords
				return m.Cleanup(emit)
			})
			if err == nil {
				e.Counters.merge(scratch)
			}
			outs[i] = mapOut{parts: parts, err: err}
		}(i, split.pairs, split.newMapper)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("job %s: map task %d: %w", job.Name, i, o.err)
		}
	}

	res := &JobResult{MapTasks: len(splits), ReduceTasks: reducers}
	if job.Reduce == nil {
		// Map-only: write each task's output as a part-m file.
		for i, o := range outs {
			if err := e.writePart(ctx, fmt.Sprintf("%s/part-m-%05d", job.Output, i), o.parts[0]); err != nil {
				return nil, fmt.Errorf("job %s: %w", job.Name, err)
			}
		}
		e.publishObs(time.Since(start))
		return res, nil
	}

	// Shuffle: merge per-partition streams, sort by key, group.
	var rwg sync.WaitGroup
	rerrs := make([]error, reducers)
	rsem := make(chan struct{}, e.cfg.ReduceSlots)
	for r := 0; r < reducers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rsem <- struct{}{}
			defer func() { <-rsem }()
			if err := sleepCtx(ctx, e.cfg.TaskStartup); err != nil {
				rerrs[r] = err
				return
			}
			var all []Pair
			for _, o := range outs {
				all = append(all, o.parts[r]...)
			}
			var out []Pair
			var scratch *Counters
			err := e.retry().DoCtx(ctx, "mapreduce.reduce", func() error {
				scratch = &Counters{}
				if err := e.cfg.Faults.Check("mapreduce.reduce"); err != nil {
					return err
				}
				var err error
				out, err = runReduce(all, job.Reduce, &scratch.ReduceInputGroups, &scratch.ReduceOutRecords)
				return err
			})
			if err == nil {
				e.Counters.merge(scratch)
				err = e.writePart(ctx, fmt.Sprintf("%s/part-r-%05d", job.Output, r), out)
			}
			if err != nil {
				rerrs[r] = fmt.Errorf("reduce task %d: %w", r, err)
			}
		}(r)
	}
	rwg.Wait()
	for _, err := range rerrs {
		if err != nil {
			return nil, err
		}
	}
	e.publishObs(time.Since(start))
	return res, nil
}

// publishObs mirrors the engine's cumulative counters into the process-wide
// metrics registry so map-reduce activity is visible alongside query
// execution (gauges track the running totals; the histogram records per-job
// latency).
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

// runReduce sorts pairs by key, stably, and calls fn once per key group,
// returning what it emits. groups counts the groups and emitted the pairs
// emitted.
func runReduce(in []Pair, fn ReduceFunc, groups, emitted *atomic.Int64) ([]Pair, error) {
	slices.SortStableFunc(in, func(a, b Pair) int { return strings.Compare(a.K, b.K) })
	var out []Pair
	emit := func(k, v string) {
		out = append(out, Pair{k, v})
		emitted.Add(1)
	}
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j].K == in[i].K {
			j++
		}
		vals := make([]string, 0, j-i)
		for _, p := range in[i:j] {
			vals = append(vals, p.V)
		}
		groups.Add(1)
		if err := fn(in[i].K, vals, emit); err != nil {
			return nil, err
		}
		i = j
	}
	return out, nil
}

// computeSplits resolves inputs (files or directories) into per-block
// splits, cut at record boundaries.
func (e *Engine) computeSplits(ctx context.Context, inputs []string) ([][]Pair, error) {
	var files []*hdfs.FileInfo
	for _, in := range inputs {
		fi, err := e.cluster.Stat(in)
		if err != nil {
			return nil, err
		}
		if fi.Size == 0 && len(fi.Blocks) == 0 {
			// Directory: take its files.
			files = append(files, e.cluster.List(in)...)
			continue
		}
		files = append(files, fi)
	}
	var splits [][]Pair
	for _, fi := range files {
		data, err := e.readInput(ctx, fi)
		if err != nil {
			return nil, err
		}
		var pairs []Pair
		if err := ScanPairs(data, func(k, v string) error {
			pairs = append(pairs, Pair{k, v})
			return nil
		}); err != nil {
			return nil, fmt.Errorf("input %s: %w", fi.Path, err)
		}
		if len(pairs) == 0 {
			continue
		}
		// One split per block, at record granularity.
		nblocks := max(len(fi.Blocks), 1)
		per := (len(pairs) + nblocks - 1) / nblocks
		for off := 0; off < len(pairs); off += per {
			splits = append(splits, pairs[off:min(off+per, len(pairs))])
		}
	}
	return splits, nil
}

// readInput assembles a file block by block. hdfs.ReadBlock already fails
// over across surviving replicas; on top of that the engine retries each
// block (dead nodes may be revived between attempts) and contextualizes
// the final error, preserving the cluster's "all replicas dead" cause.
func (e *Engine) readInput(ctx context.Context, fi *hdfs.FileInfo) (string, error) {
	var out strings.Builder
	out.Grow(int(fi.Size))
	for _, b := range fi.Blocks {
		var data []byte
		err := e.retry().DoCtx(ctx, "hdfs.read", func() error {
			d, err := e.cluster.ReadBlock(b)
			if err != nil {
				return err
			}
			data = d
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("input %s block %d: %w", fi.Path, b.ID, err)
		}
		out.Write(data)
	}
	return out.String(), nil
}

// writePart writes one task's output as a record file, retrying transient
// cluster failures. WriteFile replaces the target, so a retry never
// duplicates.
func (e *Engine) writePart(ctx context.Context, name string, pairs []Pair) error {
	size := len(RecordHeader)
	for _, p := range pairs {
		size += len(p.K) + len(p.V) + 2 // one-byte lengths; append grows past it
	}
	data := append(make([]byte, 0, size), RecordHeader...)
	for _, p := range pairs {
		data = AppendRecord(data, p.K, p.V)
	}
	return e.retry().DoCtx(ctx, "hdfs.write", func() error {
		return e.cluster.WriteFile(name, data)
	})
}

// hashKey is FNV-1a over the key's bytes.
func hashKey(k string) uint64 {
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
func AppendRecord[V string | []byte](buf []byte, k string, v V) []byte {
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
	if !strings.HasPrefix(data, RecordHeader) {
		data = strings.TrimSuffix(data, "\n")
		for more := data != ""; more; {
			var line string
			line, data, more = strings.Cut(data, "\n")
			if err := fn("", line); err != nil {
				return err
			}
		}
		return nil
	}
	data = data[len(RecordHeader):]
	field := func() (string, error) {
		n, w := value.Uvarint(data)
		if w <= 0 || n > uint64(len(data)-w) {
			return "", errTruncated
		}
		f := data[w : w+int(n)]
		data = data[w+int(n):]
		return f, nil
	}
	for data != "" {
		k, err := field()
		if err != nil {
			return err
		}
		v, err := field()
		if err != nil {
			return err
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// ReadDir calls fn on every pair of every file under dir, in listing order,
// through ScanPairs.
func ReadDir(c *hdfs.Cluster, dir string, fn func(k, v string) error) error {
	for _, fi := range c.List(dir) {
		data, err := c.ReadFile(fi.Path)
		if err != nil {
			return err
		}
		if err := ScanPairs(string(data), fn); err != nil {
			return fmt.Errorf("%s: %w", fi.Path, err)
		}
	}
	return nil
}
