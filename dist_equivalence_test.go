package hana

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hana/internal/dist"
	"hana/internal/engine"
	"hana/internal/exec"
	"hana/internal/tpch"
	"hana/internal/value"
)

// The distributed executor promises the same thing the morsel executor
// does, one level up: shard count and worker count must never show up in
// the output. Shipped rows carry their global scan sequence and the
// coordinator's k-way merge restores the exact serial order, so a scan
// fanned out over N shard replicas is byte-identical to the single-node
// partition scan — and everything built on top of it (distributed
// aggregation partials, broadcast joins) inherits the property.
// Property-check it across the TPC-H query set: every query on a sharded
// engine must equal the same query pinned local with WithLocalOnly(), and
// equal a plain single-node engine, at shard counts 1/2/4 and widths 1/4.
func TestDistributedExecutionMatchesSerial(t *testing.T) {
	data := tpch.Generate(0.005, 2015)
	schemas := tpch.Schemas()

	newLoaded := func(shards int) *engine.Engine {
		e := engine.New(engine.Config{
			ExtendedStorageDir: t.TempDir(),
			Parallelism:        4,
			Topology:           dist.Topology{Shards: shards},
		})
		for name, rows := range data.Tables {
			ddl := fmt.Sprintf("CREATE TABLE %s (", name)
			for i, c := range schemas[name].Cols {
				if i > 0 {
					ddl += ", "
				}
				ddl += c.Name + " " + c.Kind.String()
			}
			ddl += ")"
			if _, err := e.ExecuteContext(context.Background(), ddl); err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
			if err := e.BulkLoad(name, rows); err != nil {
				t.Fatalf("load %s: %v", name, err)
			}
		}
		return e
	}

	serial := newLoaded(0) // no topology: the pre-distribution engine
	ctx := context.Background()

	for _, shards := range []int{1, 2, 4} {
		e := newLoaded(shards)
		if shards == 2 {
			// Exercise the wire codec on one fleet: chunks round-trip
			// through Encode/DecodeChunk instead of in-process handoff.
			e.DistTransport().Wire = true
		}
		for _, id := range tpch.QueryIDs() {
			q := tpch.Queries()[id]
			t.Run(fmt.Sprintf("shards=%d/Q%d", shards, id), func(t *testing.T) {
				want, err := serial.ExecuteContext(ctx, q.SQL, engine.WithParallelism(1))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				local, err := e.ExecuteContext(ctx, q.SQL, engine.WithLocalOnly())
				if err != nil {
					t.Fatalf("local-only: %v", err)
				}
				compareResults(t, "local-only", q.SQL, local, want)
				for _, width := range []int{1, 4} {
					got, err := e.ExecuteContext(ctx, q.SQL, engine.WithParallelism(width))
					if err != nil {
						t.Fatalf("dist width %d: %v", width, err)
					}
					compareResults(t, fmt.Sprintf("dist width %d", width), q.SQL, got, want)
				}
			})
		}
	}
}

// Float aggregates ship as fragments because their sums are exact: a shard's
// partial sum merged with the others rounds to the bits one serial pass
// gives. Check it where naive summation would not: values that cancel
// (±1e16 around small ones), sums of tiny and huge magnitudes, −0.0, NULLs
// and a NaN, over several morsels per shard, with the wire codec on.
func TestDistributedFloatAggregatesMatchSerial(t *testing.T) {
	adversarial := []float64{1e16, 1, -1e16, 0.1, 1e-300, -0.1, 3e15, math.Copysign(0, -1), 1e300, 2.5, -1e300, -3e15, 0x1p-60, 7}
	var rows []value.Row
	for i := 0; i < 3*exec.DefaultMorselSize+17; i++ {
		x := value.NewDouble(adversarial[(i*5+i/7)%len(adversarial)] * float64(1+i%3))
		switch {
		case i%23 == 0:
			x = value.Null
		case i == 9001:
			x = value.NewDouble(math.NaN()) // one group's sums are NaN
		}
		rows = append(rows, value.Row{value.NewInt(int64(i % 5)), x})
	}
	queries := []string{
		"SELECT g, SUM(x), AVG(x), VAR(x), STDDEV(x), COUNT(x) FROM adv GROUP BY g",
		"SELECT SUM(x), AVG(x), VAR(x), STDDEV(x) FROM adv WHERE g <> 1",
		"SELECT g, SUM(DISTINCT x), AVG(DISTINCT x) FROM adv WHERE x < 1e200 GROUP BY g",
	}
	var want [][]value.Row
	ctx := context.Background()
	for _, shards := range []int{0, 2, 4} {
		e := engine.New(engine.Config{ExtendedStorageDir: t.TempDir(), Parallelism: 4, Topology: dist.Topology{Shards: shards}})
		if shards > 0 {
			e.DistTransport().Wire = true
		}
		if _, err := e.ExecuteContext(ctx, "CREATE TABLE adv (g INTEGER, x DOUBLE)"); err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad("adv", rows); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			for _, width := range []int{1, 4} {
				res, err := e.ExecuteContext(ctx, q, engine.WithParallelism(width))
				if err != nil {
					t.Fatalf("shards %d width %d %s: %v", shards, width, q, err)
				}
				if shards > 0 && !strings.Contains(res.Plan, "Dist Hash Aggregate") {
					t.Fatalf("shards %d: %s did not ship as an aggregate fragment:\n%s", shards, q, res.Plan)
				}
				if len(want) == qi {
					want = append(want, res.Rows)
					continue
				}
				if got, exp := renderBits(res.Rows), renderBits(want[qi]); got != exp {
					t.Fatalf("shards %d width %d %s:\ngot  %s\nwant %s", shards, width, q, got, exp)
				}
			}
		}
	}
	if fmt.Sprint(want[0][1][1]) != "NaN" || want[1][0][0].K != value.KindDouble {
		t.Fatalf("the NaN went missing or the global sums are not DOUBLE: %v %v", want[0], want[1])
	}
}

// renderBits renders rows with every DOUBLE as its IEEE bits, so NaN equals
// NaN and −0.0 differs from 0.0.
func renderBits(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			if v.K == value.KindDouble {
				fmt.Fprintf(&b, "%016x ", math.Float64bits(v.F))
			} else {
				fmt.Fprintf(&b, "%v ", v)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func compareResults(t *testing.T, label, sql string, got, want *engine.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Schema, want.Schema) {
		t.Fatalf("%s: schema diverged for %q: %v vs %v", label, sql, got.Schema, want.Schema)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: row count diverged for %q: %d vs %d", label, sql, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !rowsEqual(got.Rows[i], want.Rows[i]) {
			t.Fatalf("%s: row %d diverged for %q:\ngot:  %v\nwant: %v", label, i, sql, got.Rows[i], want.Rows[i])
		}
	}
}
