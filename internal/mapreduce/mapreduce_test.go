package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hana/internal/faults"
	"hana/internal/hdfs"
)

func newTestEngine(t *testing.T) (*Engine, *hdfs.Cluster) {
	t.Helper()
	c := hdfs.NewCluster(3, hdfs.WithBlockSize(256), hdfs.WithReplication(2))
	return NewEngine(c, Config{MapSlots: 8, ReduceSlots: 4, DefaultReducers: 3}), c
}

// readOutput reads a job's record files through the pair reader, each pair
// rendered "k\tv", or "v" when the key is empty.
func readOutput(t *testing.T, c *hdfs.Cluster, dir string) []string {
	t.Helper()
	var lines []string
	if err := ReadDir(c, dir, func(k, v string) error {
		if k != "" {
			v = k + "\t" + v
		}
		lines = append(lines, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

func TestWordCount(t *testing.T) {
	e, c := newTestEngine(t)
	doc := "the quick brown fox\nthe lazy dog\nthe fox"
	_ = c.WriteFile("/in/doc.txt", []byte(doc))
	job := &Job{
		Name:   "wordcount",
		Inputs: []string{"/in/doc.txt"},
		Output: "/out/wc",
		Map: func(_, line string, emit func(k, v string)) error {
			for _, w := range strings.Fields(line) {
				emit(w, "1")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			emit(key, strconv.Itoa(sum))
			return nil
		},
	}
	res, err := e.RunCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks != 3 {
		t.Fatalf("reducers = %d", res.ReduceTasks)
	}
	lines := readOutput(t, c, "/out/wc")
	want := map[string]string{"the": "3", "fox": "2", "quick": "1", "brown": "1", "lazy": "1", "dog": "1"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for _, l := range lines {
		parts := strings.SplitN(l, "\t", 2)
		if want[parts[0]] != parts[1] {
			t.Fatalf("count %s = %s", parts[0], parts[1])
		}
	}
}

// inMapperSum is a job counting its input lines per line: each map task
// keeps its counts in a table and emits them from Cleanup, an in-mapper
// combiner.
func inMapperSum(name, in, out string) *Job {
	return &Job{
		Name:   name,
		Inputs: []string{in},
		Output: out,
		NewMapper: func() Mapper {
			counts := map[string]int{}
			return Mapper{
				Map: func(_, line string, _ func(k, v string)) error {
					counts[line]++
					return nil
				},
				Cleanup: func(emit func(k, v string)) error {
					for k, n := range counts {
						emit(k, strconv.Itoa(n))
					}
					return nil
				},
			}
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				total += n
			}
			emit(key, strconv.Itoa(total))
			return nil
		},
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	e, c := newTestEngine(t)
	var b strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&b, "k%d\n", i%4)
	}
	_ = c.WriteFile("/in/keys.txt", []byte(b.String()))
	res, err := e.RunCtx(context.Background(), inMapperSum("combined", "/in/keys.txt", "/out/comb"))
	if err != nil {
		t.Fatal(err)
	}
	lines := readOutput(t, c, "/out/comb")
	if len(lines) != 4 {
		t.Fatalf("groups = %v", lines)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "\t250") {
			t.Fatalf("combiner sum wrong: %s", l)
		}
	}
	// Every task emits one record per key it saw, from Cleanup only.
	if got, limit := e.Counters.CombineOutRecords.Load(), int64(4*res.MapTasks); got == 0 || got > limit {
		t.Fatalf("CombineOutRecords = %d, want 1..%d", got, limit)
	}
	if got := e.Counters.MapOutputRecords.Load(); got != 0 {
		t.Fatalf("MapOutputRecords = %d, want 0: Map emits nothing", got)
	}
}

// A map attempt that fails after its records is re-run on a fresh Mapper:
// the retried task's table starts empty, so neither the answer nor a counter
// sees the failed attempt's records.
func TestCleanupStateIsFreshPerAttempt(t *testing.T) {
	run := func(fail int) (*Engine, []string) {
		c := hdfs.NewCluster(3, hdfs.WithBlockSize(256), hdfs.WithReplication(2))
		inj := faults.New(1)
		inj.SetSleep(func(time.Duration) {})
		inj.FailN("mapreduce.map", fail)
		e := NewEngine(c, Config{MapSlots: 4, ReduceSlots: 2, DefaultReducers: 2, Faults: inj,
			Retry: faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
		var b strings.Builder
		for i := 0; i < 600; i++ {
			fmt.Fprintf(&b, "k%d\n", i%5)
		}
		_ = c.WriteFile("/in/keys.txt", []byte(b.String()))
		if _, err := e.RunCtx(context.Background(), inMapperSum("fresh", "/in/keys.txt", "/out/fresh")); err != nil {
			t.Fatal(err)
		}
		return e, readOutput(t, c, "/out/fresh")
	}
	clean, want := run(0)
	faulty, got := run(2)
	if faulty.Counters.TaskRetries.Load() != 2 {
		t.Fatalf("TaskRetries = %d, want 2", faulty.Counters.TaskRetries.Load())
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("with retried map attempts: %v, fault-free: %v", got, want)
	}
	if g, w := faulty.Counters.MapInputRecords.Load(), clean.Counters.MapInputRecords.Load(); g != w {
		t.Fatalf("MapInputRecords = %d with retried map attempts, %d fault-free", g, w)
	}
	if g, w := faulty.Counters.CombineOutRecords.Load(), clean.Counters.CombineOutRecords.Load(); g != w {
		t.Fatalf("CombineOutRecords = %d with retried map attempts, %d fault-free", g, w)
	}
}

// A map-only job over an input with no records runs no task and writes no
// part file, yet leaves its output directory, so a job reading it finds an
// empty input instead of a missing one.
func TestEmptyJobOutputFeedsTheNextJob(t *testing.T) {
	e, c := newTestEngine(t)
	c.MkdirAll("/warehouse/empty")
	filter := &Job{
		Name: "filter", Inputs: []string{"/warehouse/empty"}, Output: "/tmp/filtered",
		Map: func(_, line string, emit func(k, v string)) error { emit("", line); return nil },
	}
	count := wordCountJob("count", "/tmp/filtered", "/out/count")
	res, err := e.RunChainCtx(context.Background(), []*Job{filter, count})
	if err != nil {
		t.Fatalf("chain over an empty input: %v", err)
	}
	if res[0].MapTasks != 0 {
		t.Fatalf("map tasks over an empty input = %d", res[0].MapTasks)
	}
	if lines := readOutput(t, c, "/out/count"); len(lines) != 0 {
		t.Fatalf("count over an empty input = %v", lines)
	}
}

func TestMapOnlyJob(t *testing.T) {
	e, c := newTestEngine(t)
	_ = c.WriteFile("/in/nums.txt", []byte("1\n2\n3\n4\n5"))
	job := &Job{
		Name:   "filter",
		Inputs: []string{"/in/nums.txt"},
		Output: "/out/filtered",
		Map: func(_, line string, emit func(k, v string)) error {
			n, _ := strconv.Atoi(line)
			if n%2 == 0 {
				emit("", line)
			}
			return nil
		},
	}
	res, err := e.RunCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks != 0 {
		t.Fatal("map-only must not run reducers")
	}
	lines := readOutput(t, c, "/out/filtered")
	if len(lines) != 2 || lines[0] != "2" || lines[1] != "4" {
		t.Fatalf("filtered = %v", lines)
	}
}

func TestDirectoryInputAndMultiBlockSplits(t *testing.T) {
	e, c := newTestEngine(t)
	// Two part files; one spans multiple 256-byte blocks.
	var big strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&big, "row-%04d\n", i)
	}
	_ = c.WriteFile("/warehouse/t/part-00000", []byte(big.String()))
	_ = c.WriteFile("/warehouse/t/part-00001", []byte("row-x\nrow-y\n"))
	job := &Job{
		Name:   "count",
		Inputs: []string{"/warehouse/t"},
		Output: "/out/count",
		Map:    func(_, line string, emit func(k, v string)) error { emit("all", "1"); return nil },
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 1,
	}
	res, err := e.RunCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 3 {
		t.Fatalf("expected multiple block splits, got %d map tasks", res.MapTasks)
	}
	lines := readOutput(t, c, "/out/count")
	if len(lines) != 1 || lines[0] != "all\t202" {
		t.Fatalf("count = %v", lines)
	}
}

func TestChainOfJobs(t *testing.T) {
	e, c := newTestEngine(t)
	_ = c.WriteFile("/in/data", []byte("a 1\nb 2\na 3\nb 4"))
	j1 := &Job{
		Name: "stage1", Inputs: []string{"/in/data"}, Output: "/tmp/s1",
		Map: func(_, line string, emit func(k, v string)) error {
			f := strings.Fields(line)
			emit(f[0], f[1])
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			emit(key, strconv.Itoa(sum))
			return nil
		},
		NumReducers: 2,
	}
	j2 := &Job{
		Name: "stage2", Inputs: []string{"/tmp/s1"}, Output: "/out/final",
		Map: func(_, v string, emit func(k, v string)) error {
			emit("total", v)
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			sum := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				sum += n
			}
			emit("", strconv.Itoa(sum))
			return nil
		},
		NumReducers: 1,
	}
	results, err := e.RunChainCtx(context.Background(), []*Job{j1, j2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || e.JobsRun.Load() != 2 {
		t.Fatal("chain accounting")
	}
	lines := readOutput(t, c, "/out/final")
	if len(lines) != 1 || lines[0] != "10" {
		t.Fatalf("final = %v", lines)
	}
}

func TestMissingInputFails(t *testing.T) {
	e, _ := newTestEngine(t)
	job := &Job{Name: "x", Inputs: []string{"/nope"}, Output: "/out",
		Map: func(string, string, func(k, v string)) error { return nil }}
	if _, err := e.RunCtx(context.Background(), job); err == nil {
		t.Fatal("missing input must fail")
	}
}

func TestCountersAccumulate(t *testing.T) {
	e, c := newTestEngine(t)
	_ = c.WriteFile("/in/d", []byte("x\ny\nz"))
	job := &Job{Name: "c", Inputs: []string{"/in/d"}, Output: "/out/c",
		Map:         func(_, line string, emit func(k, v string)) error { emit(line, "1"); return nil },
		Reduce:      func(k string, vs []string, emit func(k, v string)) error { emit(k, "1"); return nil },
		NumReducers: 1,
	}
	if _, err := e.RunCtx(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if e.Counters.MapInputRecords.Load() != 3 || e.Counters.ReduceInputGroups.Load() != 3 {
		t.Fatalf("counters: %+v", e.Counters.MapInputRecords.Load())
	}
}

func wordCountJob(name, in, out string) *Job {
	return &Job{
		Name:   name,
		Inputs: []string{in},
		Output: out,
		Map: func(_, line string, emit func(k, v string)) error {
			for _, w := range strings.Fields(line) {
				emit(w, "1")
			}
			return nil
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			emit(key, strconv.Itoa(len(values)))
			return nil
		},
		NumReducers: 1,
	}
}

func TestJobSurvivesDatanodeLossViaReplicas(t *testing.T) {
	e, c := newTestEngine(t)
	var doc strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&doc, "alpha beta gamma line%d\n", i)
	}
	_ = c.WriteFile("/in/big.txt", []byte(doc.String()))
	// Replication factor is 2, so losing any single datanode leaves one
	// live replica of every input block.
	c.KillNode(0)
	res, err := e.RunCtx(context.Background(), wordCountJob("failover", "/in/big.txt", "/out/failover"))
	if err != nil {
		t.Fatalf("job must fall back to surviving replicas: %v", err)
	}
	if res.MapTasks < 2 {
		t.Fatalf("want a multi-block input, got %d map tasks", res.MapTasks)
	}
	for _, l := range readOutput(t, c, "/out/failover") {
		parts := strings.SplitN(l, "\t", 2)
		if (parts[0] == "alpha" || parts[0] == "beta") && parts[1] != "40" {
			t.Fatalf("lost records reading via replicas: %s", l)
		}
	}
}

func TestAllReplicasDeadIsClassifiedTransient(t *testing.T) {
	c := hdfs.NewCluster(3, hdfs.WithBlockSize(256), hdfs.WithReplication(2))
	e := NewEngine(c, Config{MapSlots: 4, ReduceSlots: 2, DefaultReducers: 1,
		Retry: faults.RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}}})
	_ = c.WriteFile("/in/doc.txt", []byte("a b c\nd e f"))
	for i := 0; i < c.NumNodes(); i++ {
		c.KillNode(i)
	}
	_, err := e.RunCtx(context.Background(), wordCountJob("dead", "/in/doc.txt", "/out/dead"))
	if err == nil {
		t.Fatal("job over dead cluster must fail")
	}
	if !strings.Contains(err.Error(), "all replicas dead") {
		t.Fatalf("error must name the replica outage: %v", err)
	}
	if !faults.IsTransient(err) {
		t.Fatalf("replica outage must stay retryable through wrapping: %v", err)
	}
	// Reviving the nodes makes the same job succeed: the failure really
	// was transient.
	for i := 0; i < c.NumNodes(); i++ {
		c.ReviveNode(i)
	}
	if _, err := e.RunCtx(context.Background(), wordCountJob("dead2", "/in/doc.txt", "/out/dead2")); err != nil {
		t.Fatal(err)
	}
}

func TestMapTaskRetriesDoNotDoubleCount(t *testing.T) {
	c := hdfs.NewCluster(3, hdfs.WithBlockSize(256), hdfs.WithReplication(2))
	inj := faults.New(7)
	inj.SetSleep(func(time.Duration) {})
	e := NewEngine(c, Config{MapSlots: 4, ReduceSlots: 2, DefaultReducers: 1,
		Faults: inj,
		Retry:  faults.RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}})
	_ = c.WriteFile("/in/doc.txt", []byte("x\ny\nz"))
	// Two injected map failures are absorbed by the three attempts.
	inj.FailN("mapreduce.map", 2)
	if _, err := e.RunCtx(context.Background(), wordCountJob("retry", "/in/doc.txt", "/out/retry")); err != nil {
		t.Fatalf("transient map failures must be re-scheduled: %v", err)
	}
	if got := e.Counters.TaskRetries.Load(); got != 2 {
		t.Fatalf("TaskRetries = %d, want 2", got)
	}
	// Scratch counters merge only on the successful attempt, so retried
	// tasks never double-count.
	if got := e.Counters.MapInputRecords.Load(); got != 3 {
		t.Fatalf("MapInputRecords = %d, want 3 (no double-count on retry)", got)
	}
}

func TestRunCtxCancelAbortsStartupDelays(t *testing.T) {
	e, c := newTestEngine(t)
	// Startup delays far longer than the test's patience: only a
	// mid-sleep abort can return in time.
	e.cfg.JobStartup = 10 * time.Second
	e.cfg.TaskStartup = 10 * time.Second
	_ = c.WriteFile("/in/doc.txt", []byte("a b\nc"))

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := e.RunCtx(ctx, wordCountJob("cancel", "/in/doc.txt", "/out/cancel"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx under canceled ctx = %v, want context.Canceled in chain", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancel took %v: the JobStartup sleep did not abort mid-sleep", elapsed)
	}
}

func TestRunCtxCancelAbortsTaskStartup(t *testing.T) {
	e, c := newTestEngine(t)
	// Job startup is instant; the cancel must land inside the per-task
	// scheduling delay instead.
	e.cfg.TaskStartup = 10 * time.Second
	_ = c.WriteFile("/in/doc.txt", []byte("a b\nc"))

	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := e.RunCtx(ctx, wordCountJob("cancel2", "/in/doc.txt", "/out/cancel2"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx under canceled ctx = %v, want context.Canceled in chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancel took %v: the TaskStartup sleep did not abort mid-sleep", elapsed)
	}
}

func TestRunChainCtxStopsOnCancel(t *testing.T) {
	e, c := newTestEngine(t)
	_ = c.WriteFile("/in/doc.txt", []byte("a b\nc"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the chain must not run any job
	res, err := e.RunChainCtx(ctx, []*Job{
		wordCountJob("chain1", "/in/doc.txt", "/out/chain1"),
		wordCountJob("chain2", "/in/doc.txt", "/out/chain2"),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunChainCtx = %v, want context.Canceled in chain", err)
	}
	if len(res) != 0 {
		t.Fatalf("canceled chain returned %d results, want 0", len(res))
	}
	if got := e.JobsRun.Load(); got != 0 {
		t.Fatalf("JobsRun = %d after pre-canceled chain, want 0", got)
	}
}

// Pair is one (key, value) record.
type Pair struct{ K, V string }

func TestScanPairsReadsRecordFilesAndTextLines(t *testing.T) {
	collect := func(data string) ([]Pair, error) {
		var out []Pair
		err := ScanPairs(data, func(k, v string) error {
			out = append(out, Pair{k, v})
			return nil
		})
		return out, err
	}
	want := []Pair{{"k\t1", "v\nwith newline"}, {"", ""}, {"\x00", strings.Repeat("x", 300)}}
	rec := []byte(RecordHeader)
	ends := map[int]bool{len(rec): true} // record boundaries
	for _, p := range want {
		rec = AppendRecord(rec, p.K, p.V)
		ends[len(rec)] = true
	}
	if got, err := collect(string(rec)); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("record file = %q, %v; want %q", got, err, want)
	}
	if got, err := collect(RecordHeader); err != nil || len(got) != 0 {
		t.Fatalf("header-only file = %q, %v", got, err)
	}
	// A headerless file is text: one pair per line, as strings.Split cuts it.
	if got, err := collect("a\tb\n\nc\n"); err != nil || fmt.Sprint(got) != fmt.Sprint([]Pair{{"", "a\tb"}, {"", ""}, {"", "c"}}) {
		t.Fatalf("text file = %q, %v", got, err)
	}
	// Cut anywhere but between records, the file is an error.
	for cut := len(RecordHeader); cut < len(rec); cut++ {
		if _, err := collect(string(rec[:cut])); (err == nil) != ends[cut] {
			t.Fatalf("record file cut at %d of %d: %v", cut, len(rec), err)
		}
	}
}

// A record a mapper cannot read fails the job: the error is not transient,
// so the task is not retried, and no partial output is published.
func TestMapErrorFailsJobWithoutRetry(t *testing.T) {
	e, c := newTestEngine(t)
	_ = c.WriteFile("/in/d", []byte("1\nx\n3"))
	job := &Job{Name: "strict", Inputs: []string{"/in/d"}, Output: "/out/strict",
		Map: func(_, line string, emit func(k, v string)) error {
			if _, err := strconv.Atoi(line); err != nil {
				return err
			}
			emit(line, "1")
			return nil
		},
		Reduce:      func(k string, vs []string, emit func(k, v string)) error { emit(k, "1"); return nil },
		NumReducers: 1,
	}
	_, err := e.RunCtx(context.Background(), job)
	if err == nil || !strings.Contains(err.Error(), `parsing "x"`) {
		t.Fatalf("job over an unreadable record = %v, want the mapper's error", err)
	}
	if faults.IsTransient(err) || e.Counters.TaskRetries.Load() != 0 {
		t.Fatalf("a decode error was retried (%d retries, transient %v)", e.Counters.TaskRetries.Load(), faults.IsTransient(err))
	}
	if len(c.List("/out/strict")) != 0 {
		t.Fatal("a failed job published output")
	}
}

// A record file cut inside its last record fails the job with an error
// that names the file, whether the file is one block, framed by its map
// task, or several, framed when it is split.
func TestTruncatedInputNamesItsFile(t *testing.T) {
	e, c := newTestEngine(t)
	for _, n := range []int{3, 100} {
		data := []byte(RecordHeader)
		for i := 0; i < n; i++ {
			data = AppendRecord(data, "k", fmt.Sprintf("value-%03d", i))
		}
		in := fmt.Sprintf("/in/records-%d", n)
		_ = c.WriteFile(in, data[:len(data)-1])
		if fi, _ := c.Stat(in); (len(fi.Blocks) == 1) != (n == 3) {
			t.Fatalf("%s is %d blocks", in, len(fi.Blocks))
		}
		job := &Job{Name: "cut", Inputs: []string{in}, Output: "/out/cut",
			Map:         func(k, v string, emit func(k, v string)) error { emit(k, v); return nil },
			Reduce:      func(k string, vs []string, emit func(k, v string)) error { return nil },
			NumReducers: 1,
		}
		_, err := e.RunCtx(context.Background(), job)
		if err == nil || !strings.Contains(err.Error(), "input "+in+": mapreduce: truncated record") {
			t.Errorf("job over %s = %v, want a truncated record in that file", in, err)
		}
		if faults.IsTransient(err) {
			t.Errorf("a truncated record must not be transient: %v", err)
		}
	}
}

// TestReduceValuesKeepMapOrder pins the shuffle's order: a reducer sees a
// key's values in split order, then in the order a map task emitted them.
// Many keys collect values from several map tasks over several blocks of two
// inputs, a text file mapped a record at a time and a record file mapped a
// morsel at a time; each value names its input, line and emission, so the
// order the reducer must see is the values' byte order.
func TestReduceValuesKeepMapOrder(t *testing.T) {
	e, c := newTestEngine(t)
	const lines, keys, per = 600, 37, 3
	var text strings.Builder
	recs := []byte(RecordHeader)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&text, "%d\n", i)
		recs = AppendRecord(recs, "", strconv.Itoa(i))
	}
	_ = c.WriteFile("/in/a.txt", []byte(text.String()))
	_ = c.WriteFile("/in/b.rec", recs)
	emitAll := func(input, line string, emit func(k, v string)) error {
		i, err := strconv.Atoi(line)
		for j := 0; j < per; j++ {
			emit(strconv.Itoa((i*7+j)%keys), fmt.Sprintf("%s%05d-%d", input, i, j))
		}
		return err
	}
	var seen atomic.Int64
	job := &Job{
		Name:   "order",
		Output: "/out/order",
		TaggedInputs: []TaggedInput{
			{Paths: []string{"/in/a.txt"}, Mapper: Mapper{Map: func(_, line string, emit func(k, v string)) error {
				return emitAll("a", line, emit)
			}}},
			{Paths: []string{"/in/b.rec"}, Mapper: Mapper{MapMorsel: func(vals []string, emit func(k, v []byte)) error {
				for _, v := range vals {
					if err := emitAll("b", v, func(k, v string) { emit([]byte(k), []byte(v)) }); err != nil {
						return err
					}
				}
				return nil
			}}},
		},
		Reduce: func(key string, values []string, emit func(k, v string)) error {
			if !sort.StringsAreSorted(values) {
				return fmt.Errorf("key %s: values out of map order: %v", key, values)
			}
			seen.Add(int64(len(values)))
			return nil
		},
	}
	res, err := e.RunCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks < 4 || res.ReduceTasks < 2 {
		t.Fatalf("%d map tasks and %d reducers, want several of each", res.MapTasks, res.ReduceTasks)
	}
	if got := seen.Load(); got != 2*lines*per {
		t.Fatalf("reducers saw %d values, want %d", got, 2*lines*per)
	}
}

// TestMapTaskAllocatesPerTask pins a map task's framing: it cuts its
// split's records itself and hands them on a morsel at a time, so a split
// of 4,096 records allocates what one of 64 does.
func TestMapTaskAllocatesPerTask(t *testing.T) {
	e, _ := newTestEngine(t)
	input := func(n int) split {
		recs := []byte{}
		for i := 0; i < n; i++ {
			recs = AppendRecord(recs, "", fmt.Sprintf("record %d", i))
		}
		mapper := Mapper{MapMorsel: func([]string, func(k, v []byte)) error { return nil }}
		return split{body: string(recs), newMapper: func() Mapper { return mapper }}
	}
	run := func(sp split) func() {
		return func() {
			if _, err := e.mapTask(sp, 3, &Counters{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := testing.AllocsPerRun(20, run(input(64))), testing.AllocsPerRun(20, run(input(4096)))
	if large > small {
		t.Fatalf("a map task over 4,096 records allocates %.1f times, over 64 %.1f", large, small)
	}
}
