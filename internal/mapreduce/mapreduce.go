// Package mapreduce implements the Hadoop-style map-reduce engine that runs
// over the simulated HDFS: jobs with map, combine and reduce functions,
// block-granular input splits, a slot-limited task scheduler (the paper's
// cluster ran 240 map and 120 reduce tasks), a sort-shuffle-merge phase,
// counters, and a configurable per-job startup latency modeling the job
// submission overhead of a real cluster.
package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hana/internal/faults"
	"hana/internal/hdfs"
	"hana/internal/obs"
)

// MapFunc processes one input line, emitting key/value pairs.
type MapFunc func(line string, emit func(k, v string))

// ReduceFunc processes one key group, emitting output pairs.
type ReduceFunc func(key string, values []string, emit func(k, v string))

// TaggedInput pairs a set of inputs with their own mapper — the mechanism
// behind reduce-side joins, where each join side tags its records.
type TaggedInput struct {
	Paths []string
	Map   MapFunc
}

// Job describes one map-reduce job. Either Inputs+Map or TaggedInputs is
// set.
type Job struct {
	Name         string
	Inputs       []string // HDFS files or directories
	Output       string   // HDFS directory for part files
	Map          MapFunc
	TaggedInputs []TaggedInput // alternative to Inputs/Map (reduce-side joins)
	Combine      ReduceFunc    // optional map-side pre-aggregation
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
	// Faults injects failures at "mapreduce.map", "mapreduce.reduce" (the
	// task attempts) on top of the cluster's own "hdfs.*" sites; nil
	// disables injection.
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
	Duration    time.Duration
	OutputFiles []string
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

// Cluster returns the underlying HDFS.
func (e *Engine) Cluster() *hdfs.Cluster { return e.cluster }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

type kv struct{ k, v string }

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
// returns its result. Cancellation interrupts the job- and task-startup
// delays, stops retry backoff between attempts (RetryPolicy.DoCtx), and
// fails the job with the context's error.
func (e *Engine) RunCtx(ctx context.Context, job *Job) (*JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := sleepCtx(ctx, e.cfg.JobStartup); err != nil {
		return nil, fmt.Errorf("job %s: %w", job.Name, err)
	}
	e.JobsRun.Add(1)

	type taggedSplit struct {
		lines []string
		fn    MapFunc
	}
	var splits []taggedSplit
	if len(job.TaggedInputs) > 0 {
		for _, ti := range job.TaggedInputs {
			ss, err := e.computeSplits(ctx, ti.Paths)
			if err != nil {
				return nil, fmt.Errorf("job %s: %w", job.Name, err)
			}
			for _, s := range ss {
				splits = append(splits, taggedSplit{lines: s, fn: ti.Map})
			}
		}
	} else {
		ss, err := e.computeSplits(ctx, job.Inputs)
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", job.Name, err)
		}
		for _, s := range ss {
			splits = append(splits, taggedSplit{lines: s, fn: job.Map})
		}
	}
	reducers := job.NumReducers
	if reducers <= 0 {
		reducers = e.cfg.DefaultReducers
	}
	if job.Reduce == nil {
		reducers = 0
	}

	// Map phase: each task produces per-partition output.
	type mapOut struct {
		parts [][]kv
		err   error
	}
	outs := make([]mapOut, len(splits))
	sem := make(chan struct{}, e.cfg.MapSlots)
	var wg sync.WaitGroup
	for i, split := range splits {
		wg.Add(1)
		go func(i int, lines []string, mapFn MapFunc) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := sleepCtx(ctx, e.cfg.TaskStartup); err != nil {
				outs[i] = mapOut{err: err}
				return
			}
			// Each attempt is a fresh task execution on scratch state;
			// counters merge only once the attempt succeeds, so a
			// re-scheduled task never double-counts.
			var parts [][]kv
			var scratch *Counters
			err := e.retry().DoCtx(ctx, "mapreduce.map", func() error {
				scratch = &Counters{}
				if err := e.cfg.Faults.Check("mapreduce.map"); err != nil {
					return err
				}
				nparts := reducers
				if nparts == 0 {
					nparts = 1
				}
				parts = make([][]kv, nparts)
				emit := func(k, v string) {
					p := 0
					if reducers > 0 {
						p = int(hashKey(k) % uint64(reducers))
					}
					parts[p] = append(parts[p], kv{k, v})
					scratch.MapOutputRecords.Add(1)
				}
				for _, line := range lines {
					scratch.MapInputRecords.Add(1)
					mapFn(line, emit)
				}
				if job.Combine != nil && reducers > 0 {
					for p := range parts {
						parts[p] = combine(parts[p], job.Combine, scratch)
					}
				}
				return nil
			})
			if err == nil {
				e.Counters.merge(scratch)
			}
			outs[i] = mapOut{parts: parts, err: err}
		}(i, split.lines, split.fn)
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
			name := fmt.Sprintf("%s/part-m-%05d", job.Output, i)
			if err := e.writePart(ctx, name, o.parts[0]); err != nil {
				return nil, fmt.Errorf("job %s: %w", job.Name, err)
			}
			res.OutputFiles = append(res.OutputFiles, name)
		}
		res.Duration = time.Since(start)
		e.publishObs(res.Duration)
		return res, nil
	}

	// Shuffle: merge per-partition streams, sort by key, group.
	var rwg sync.WaitGroup
	rerrs := make([]error, reducers)
	rsem := make(chan struct{}, e.cfg.ReduceSlots)
	partNames := make([]string, reducers)
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
			var all []kv
			for _, o := range outs {
				all = append(all, o.parts[r]...)
			}
			sort.SliceStable(all, func(i, j int) bool { return all[i].k < all[j].k })
			var out []kv
			var scratch *Counters
			err := e.retry().DoCtx(ctx, "mapreduce.reduce", func() error {
				scratch = &Counters{}
				if err := e.cfg.Faults.Check("mapreduce.reduce"); err != nil {
					return err
				}
				out = out[:0]
				emit := func(k, v string) {
					out = append(out, kv{k, v})
					scratch.ReduceOutRecords.Add(1)
				}
				for i := 0; i < len(all); {
					j := i
					for j < len(all) && all[j].k == all[i].k {
						j++
					}
					vals := make([]string, 0, j-i)
					for _, p := range all[i:j] {
						vals = append(vals, p.v)
					}
					scratch.ReduceInputGroups.Add(1)
					job.Reduce(all[i].k, vals, emit)
					i = j
				}
				return nil
			})
			if err != nil {
				rerrs[r] = fmt.Errorf("reduce task %d: %w", r, err)
				return
			}
			e.Counters.merge(scratch)
			name := fmt.Sprintf("%s/part-r-%05d", job.Output, r)
			if err := e.writePart(ctx, name, out); err != nil {
				rerrs[r] = err
				return
			}
			partNames[r] = name
		}(r)
	}
	rwg.Wait()
	for _, err := range rerrs {
		if err != nil {
			return nil, err
		}
	}
	res.OutputFiles = partNames
	res.Duration = time.Since(start)
	e.publishObs(res.Duration)
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

func combine(in []kv, fn ReduceFunc, counters *Counters) []kv {
	sort.SliceStable(in, func(i, j int) bool { return in[i].k < in[j].k })
	var out []kv
	emit := func(k, v string) {
		out = append(out, kv{k, v})
		counters.CombineOutRecords.Add(1)
	}
	for i := 0; i < len(in); {
		j := i
		for j < len(in) && in[j].k == in[i].k {
			j++
		}
		vals := make([]string, 0, j-i)
		for _, p := range in[i:j] {
			vals = append(vals, p.v)
		}
		fn(in[i].k, vals, emit)
		i = j
	}
	return out
}

// computeSplits resolves inputs (files or directories) into per-block line
// splits.
func (e *Engine) computeSplits(ctx context.Context, inputs []string) ([][]string, error) {
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
	var splits [][]string
	for _, fi := range files {
		data, err := e.readInput(ctx, fi)
		if err != nil {
			return nil, err
		}
		lines := splitLines(string(data))
		if len(lines) == 0 {
			continue
		}
		nblocks := len(fi.Blocks)
		if nblocks <= 1 {
			splits = append(splits, lines)
			continue
		}
		// One split per block, at line granularity.
		per := (len(lines) + nblocks - 1) / nblocks
		for off := 0; off < len(lines); off += per {
			end := off + per
			if end > len(lines) {
				end = len(lines)
			}
			splits = append(splits, lines[off:end])
		}
	}
	return splits, nil
}

// readInput assembles a file block by block. hdfs.ReadBlock already fails
// over across surviving replicas; on top of that the engine retries each
// block (dead nodes may be revived between attempts) and contextualizes
// the final error, preserving the cluster's "all replicas dead" cause.
func (e *Engine) readInput(ctx context.Context, fi *hdfs.FileInfo) ([]byte, error) {
	out := make([]byte, 0, fi.Size)
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
			return nil, fmt.Errorf("input %s block %d: %w", fi.Path, b.ID, err)
		}
		out = append(out, data...)
	}
	return out, nil
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// writePart writes one task's output file, retrying transient cluster
// failures. WriteFile replaces the target, so a retry never duplicates.
func (e *Engine) writePart(ctx context.Context, name string, pairs []kv) error {
	var b strings.Builder
	for _, p := range pairs {
		if p.k != "" {
			b.WriteString(p.k)
			b.WriteByte('\t')
		}
		b.WriteString(p.v)
		b.WriteByte('\n')
	}
	data := []byte(b.String())
	return e.retry().DoCtx(ctx, "hdfs.write", func() error {
		return e.cluster.WriteFile(name, data)
	})
}

func hashKey(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}
