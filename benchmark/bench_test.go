package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var toyScale = scale{
	tpchSF: 0.002, fedSF: 0.0005, probeSF: 0.002,
	lifeRows: 20_000, lifeTx: 20, lifeAge: 500,
	setups: 1, minPasses: 2, jobStartup: time.Millisecond,
}

// TestSmoke runs all four workloads at toy scale and fails if an operation
// fails or if the workload and metric names reported differ from those
// BENCHMARK.json declares — the JSON and the code must not drift apart.
// tpch_fed runs traced, which covers the adapter shim, the probes and the
// per-layer names; the others run untraced.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []string
	why := map[string]string{}
	for _, w := range decl.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		why[w.Name] = w.Why
	}
	wantE2E := map[string]string{}
	for _, m := range decl.EndToEnd {
		wantE2E[m.Name] = m.Unit
		var g gate
		for _, c := range gates {
			if c.name == m.Name {
				g = c
			}
		}
		if g.name == "" || g.bound != m.Bound || g.higherBetter != (m.Better == "higher") {
			t.Errorf("BENCHMARK.json gates %s at %v/%s, the code at %+v", m.Name, m.Bound, m.Better, g)
		}
	}
	wantLayer := map[string]string{}
	for _, m := range decl.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	var gotWorkloads []string
	for _, d := range workloads {
		p := params{workload: d.name, seed: 2015, trace: d.name == "tpch_fed", scratch: t.TempDir(), sc: toyScale}
		rep, err := runAll(io.Discard, p, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rep.Results {
			gotWorkloads = append(gotWorkloads, res.Workload)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Failures)
			}
			if res.Trace {
				sameNames(t, res.Workload+" per-layer", wantLayer, verdictOf(res))
				res.Trace = false
			}
			sameNames(t, res.Workload+" end-to-end", wantE2E, verdictOf(res))
		}
	}
	if !equalStrings(gotWorkloads, wantWorkloads) {
		t.Errorf("workloads run %v, BENCHMARK.json declares %v", gotWorkloads, wantWorkloads)
	}
	for _, d := range workloads {
		if why[d.name] != d.why {
			t.Errorf("%s: BENCHMARK.json says why=%q, the code %q", d.name, why[d.name], d.why)
		}
	}
}

func sameNames(t *testing.T, what string, want map[string]string, got verdict) {
	t.Helper()
	for name, unit := range want {
		cell, ok := got.Metrics[name]
		if !ok {
			t.Errorf("%s: %s declared in BENCHMARK.json but not reported", what, name)
		} else if cell.Unit != unit {
			t.Errorf("%s: %s reported in %q, declared in %q", what, name, cell.Unit, unit)
		}
	}
	for name := range got.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s reported but not declared in BENCHMARK.json", what, name)
		}
	}
}

func equalStrings(a, b []string) bool {
	a, b = append([]string{}, a...), append([]string{}, b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
