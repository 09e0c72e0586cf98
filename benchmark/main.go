// Command benchmark is this repository's benchmark: four closed-loop,
// single-client workloads over the platform, end-to-end metrics measured
// with the benchmark's span recorder off, and a traced run that adds the
// per-layer metrics. See README.md in this directory.
//
//	go run ./benchmark -seed 2015                  # all four workloads
//	go run ./benchmark -workload tpch_fed -trace 1 # one workload, traced
//	go run ./benchmark -compare a.json b.json      # two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var p params
	var traceFlag int
	var out, traceOut string
	var compare bool
	flag.StringVar(&p.workload, "workload", "all", "workload to run: tpch_local, tpch_dist2, tpch_fed, hybrid_lifecycle or all")
	flag.Int64Var(&p.seed, "seed", 2015, "seed of every input generator")
	flag.Float64Var(&p.seconds, "seconds", 20, "length of the timed window per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: record spans, run the layer probes, report per-layer metrics")
	flag.StringVar(&p.scratch, "scratch", ".bench_build/scratch", "directory for data dirs and WAL files (removed afterwards)")
	flag.StringVar(&out, "out", "", "write the full report (env, metrics with n and quartiles, counts) as JSON")
	flag.StringVar(&traceOut, "trace-out", "", "with -trace 1: write the recorded spans, per workload, as JSON")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments")
	flag.Parse()
	p.trace = traceFlag != 0
	p.sc = defaultScale

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}

	rep, err := runAll(os.Stdout, p, traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	for _, r := range rep.Results {
		if r.Failed > 0 {
			os.Exit(1)
		}
	}
}

// report is the -out schema: one environment block and one result per
// workload run.
type report struct {
	Env     env       `json:"env"`
	Results []*result `json:"results"`
}

type env struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TPCHSF     float64 `json:"tpch_sf"`
	FedSF      float64 `json:"fed_sf"`
	LifeRows   int     `json:"lifecycle_rows"`
}

func readEnv(p params) env {
	e := env{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: p.seed, Seconds: p.seconds,
		TPCHSF: p.sc.tpchSF, FedSF: p.sc.fedSF, LifeRows: p.sc.lifeRows,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// runAll runs the selected workloads, printing each one's report followed
// by its one-line JSON verdict (the last line of output is the last
// workload's verdict).
func runAll(w io.Writer, p params, traceOut string) (*report, error) {
	var defs []workloadDef
	for _, d := range workloads {
		if p.workload == "all" || p.workload == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("unknown workload %q", p.workload)
	}
	rep := &report{Env: readEnv(p)}
	envLine, err := json.Marshal(rep.Env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "env %s\n", envLine)
	spans := map[string][]span{}
	for _, d := range defs {
		res, recorded, err := runWorkload(d, p)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, res)
		spans[d.name] = recorded
		printResult(w, res)
		line, err := json.Marshal(verdictOf(res))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	if traceOut != "" && p.trace {
		data, err := json.Marshal(spans)
		if err == nil {
			err = os.WriteFile(traceOut, data, 0o644)
		}
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// verdict is the one-line result the driver reads.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]verdictCell `json:"metrics"`
}

type verdictCell struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdictOf reports the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced one.
func verdictOf(res *result) verdict {
	v := verdict{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]verdictCell{}}
	ms := res.EndToEnd
	if res.Trace {
		ms = res.PerLayer
	}
	for _, m := range ms {
		v.Metrics[m.Name] = verdictCell{Value: m.Value, Unit: m.Unit}
	}
	return v
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  passes %d  attempted_ops %d  failed_ops %d\n", res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "-- %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
			if m.Q1 != 0 || m.Q3 != 0 {
				fmt.Fprintf(w, "  q1=%.4f q3=%.4f", m.Q1, m.Q3)
			}
			fmt.Fprintln(w)
		}
	}
	section("end to end (recorder off; gated)", res.EndToEnd)
	section("breakdown (not gated)", res.Breakdown)
	section("per layer (traced run)", res.PerLayer)
	fmt.Fprintf(w, "-- counts (first timed pass; must repeat exactly for a seed)\n")
	for _, k := range sortedKeys(res.Counts) {
		fmt.Fprintf(w, "  %-34s %14d\n", k, res.Counts[k])
	}
}
