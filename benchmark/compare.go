package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// gate is how one end-to-end metric is judged: the share of the base median
// by which it may worsen, and which direction is worse.
type gate struct {
	name         string
	bound        float64
	higherBetter bool
}

// gates lists every bounded metric in -compare's row order. BENCHMARK.json
// repeats the first four, the ones every workload reports; the smoke test
// keeps the two in step. The rest are the per-workload breakdowns, judged by
// -compare but not by the driver.
var gates = []gate{
	{name: "setup_s", bound: 0.25},
	{name: "resident_mb", bound: 0.05},
	{name: "suite_ms", bound: 0.25},
	{name: "geomean_ms", bound: 0.25},
	{name: "normal_suite_ms", bound: 0.25},
	{name: "materialize_suite_ms", bound: 0.25},
	{name: "cached_suite_ms", bound: 0.25},
	{name: "insert_tx_per_s", bound: 0.25, higherBetter: true},
	{name: "aging_rows_per_s", bound: 0.25, higherBetter: true},
	{name: "read_mix_ms", bound: 0.25},
	{name: "cold_delete_ms", bound: 0.25},
	{name: "recover_s", bound: 0.25},
}

func loadReports(list string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := &report{}
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// side collects, per workload and metric, one value per run.
type side map[string]map[string][]float64

func collect(reps []*report) (side, map[string]map[string]int64) {
	s := side{}
	counts := map[string]map[string]int64{}
	for _, rep := range reps {
		for _, res := range rep.Results {
			if res.Trace {
				continue // end-to-end numbers come from untraced runs
			}
			if s[res.Workload] == nil {
				s[res.Workload] = map[string][]float64{}
				counts[res.Workload] = res.Counts
			}
			for _, m := range append(append([]metric{}, res.EndToEnd...), res.Breakdown...) {
				s[res.Workload][m.Name] = append(s[res.Workload][m.Name], m.Value)
			}
		}
	}
	return s, counts
}

// compareFiles prints one row per (workload, metric): base and candidate
// medians, their ratio, the bound, and a verdict — `worse` when the
// candidate's median is worse than the base's by more than the bound,
// `unresolved` when either side's run-to-run spread (quartile distance ÷
// median, needs ≥ 4 runs a side) is wider than the bound, `same` otherwise.
// Each argument is one -out file or a comma-separated list of them, one per
// run. Counts are compared exactly.
func compareFiles(w io.Writer, a, b string) error {
	ra, err := loadReports(a)
	if err != nil {
		return err
	}
	rb, err := loadReports(b)
	if err != nil {
		return err
	}
	sa, ca := collect(ra)
	sb, cb := collect(rb)
	fmt.Fprintf(w, "%-17s %-22s %12s %12s %7s %6s %7s  %s\n", "workload", "metric", "base", "candidate", "ratio", "bound", "spread", "verdict")
	for _, def := range workloads {
		for _, g := range gates {
			xa, xb := sa[def.name][g.name], sb[def.name][g.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worsening := mb/ma - 1
			if g.higherBetter {
				worsening = 1 - mb/ma
			}
			spread, spreadText := 0.0, "n/a"
			if len(xa) >= 4 && len(xb) >= 4 {
				for _, xs := range [][]float64{xa, xb} {
					q1, q3 := quartiles(xs)
					if s := (q3 - q1) / median(xs); s > spread {
						spread = s
					}
				}
				spreadText = fmt.Sprintf("%.1f%%", 100*spread)
			}
			verdict := "same"
			switch {
			case spread > g.bound:
				verdict = "unresolved"
			case worsening > g.bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-17s %-22s %12.4f %12.4f %7.3f %5.0f%% %7s  %s\n", def.name, g.name, ma, mb, mb/ma, 100*g.bound, spreadText, verdict)
		}
		for _, k := range sortedKeys(ca[def.name]) {
			if va, vb := ca[def.name][k], cb[def.name][k]; va != vb {
				fmt.Fprintf(w, "%-17s count %-28s %d != %d\n", def.name, k, va, vb)
			}
		}
	}
	return nil
}
