// Command benchpar measures the morsel executor: every workload in
// bench.ParallelWorkloads at parallelism 1 vs N over an all-local TPC-H
// fixture, written as JSON (BENCH_parallel.json in CI). Alongside wall
// clock it reports allocs/op and bytes/op so the perf trajectory tracks
// allocation pressure, not just latency.
//
//	benchpar -sf 0.02 -workers 4 -iters 3 -out BENCH_parallel.json
//	benchpar -sf 0.02 -workers 4 -iters 5 -hotpath BENCH_hotpath.json \
//	    -hotpath-before old_hotpath.json
//	benchpar -sf 0.1 -workers 4 -iters 3 -vector BENCH_vector.json
//
// -vector writes the row-vs-vectorized executor comparison: every workload
// through the classic row path (engine.WithRowExec) and the default batch
// path at the same parallelism, with ns/op, allocs/op, and bytes/op.
//
// -hotpath writes the allocation-focused report (ns/op, allocs/op,
// bytes/op per workload); -hotpath-before embeds a previously captured
// report's measurements as the "before" half, making the output a
// self-contained before/after comparison.
//
// Speedup is wall-clock serial/parallel; it only exceeds 1 when
// GOMAXPROCS > 1 (the report records num_cpu and gomaxprocs so a 1.0x
// result on a single-core runner is self-explaining).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hana/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	workers := flag.Int("workers", 4, "parallel worker count")
	iters := flag.Int("iters", 3, "runs per measurement (best is kept)")
	out := flag.String("out", "", "write parallel JSON report here (default stdout)")
	hotpath := flag.String("hotpath", "", "write allocation (hotpath) JSON report here")
	hotBefore := flag.String("hotpath-before", "", "embed this prior hotpath report as the before half")
	vector := flag.String("vector", "", "write the row-vs-vectorized executor JSON report here")
	flag.Parse()

	dir, err := os.MkdirTemp("", "benchpar")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	e, err := bench.SetupLocalTPCH(*sf, 2015, dir, *workers)
	if err != nil {
		fatal(err)
	}

	if *vector != "" {
		rep, err := bench.RunVectorBench(e, *sf, *workers, *iters)
		if err != nil {
			fatal(err)
		}
		if err := writeJSON(*vector, rep); err != nil {
			fatal(err)
		}
		for _, r := range rep.Results {
			fmt.Printf("%-6s %10.2fms rows  %10.2fms vector  speedup %.2fx  allocs %d -> %d\n",
				r.Workload, r.RowNSOp/1e6, r.VectorNSOp/1e6, r.Speedup, r.RowAllocs, r.VectorAllocs)
		}
		return
	}

	if *hotpath != "" {
		rep, err := bench.RunHotpathBench(e, *sf, *workers, *iters)
		if err != nil {
			fatal(err)
		}
		if *hotBefore != "" {
			prev, err := os.ReadFile(*hotBefore)
			if err != nil {
				fatal(err)
			}
			var old bench.HotpathReport
			if err := json.Unmarshal(prev, &old); err != nil {
				fatal(fmt.Errorf("parse %s: %w", *hotBefore, err))
			}
			rep.Before = old.After
		}
		if err := writeJSON(*hotpath, rep); err != nil {
			fatal(err)
		}
		for _, r := range rep.After {
			fmt.Printf("%-6s %10.2fms  %9d allocs/op  %11d B/op  %7.1f allocs/row\n",
				r.Workload, r.NSPerOp/1e6, r.AllocsPerOp, r.BytesPerOp, r.AllocsRow)
		}
		return
	}

	rep, err := bench.RunParallelBench(e, *sf, *workers, *iters)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		os.Stdout.Write(data)
		return
	}
	if err := writeJSON(*out, rep); err != nil {
		fatal(err)
	}
	for _, r := range rep.Results {
		fmt.Printf("%-6s %8.2fms serial  %8.2fms x%d  speedup %.2fx  %d allocs/op serial\n",
			r.Workload, r.SerialMS, r.ParallelMS, r.Workers, r.Speedup, r.SerialAllocs)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpar:", err)
	os.Exit(1)
}
