package hive

import (
	"runtime/debug"
	"testing"

	"hana/internal/expr"
	"hana/internal/tpch"
	"hana/internal/value"
)

func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// lineitemRecords encodes n lineitem rows whose numbers vary with the row.
func lineitemRecords(n int) (*value.Schema, []string) {
	schema := tpch.Schemas()["lineitem"]
	d, _ := value.ParseDate("1995-03-15")
	recs := make([]string, n)
	row := make(value.Row, schema.Len())
	for r := range recs {
		for i, c := range schema.Cols {
			switch c.Kind {
			case value.KindInt:
				row[i] = value.NewInt(int64(1000 + i + r))
			case value.KindDouble:
				row[i] = value.NewDouble(float64(i+r%50) + 0.25)
			case value.KindDate:
				row[i] = value.NewDate(d.I + int64(r%30))
			default:
				row[i] = value.NewString("a lineitem comment of some length")
			}
		}
		recs[r] = EncodeRow(row)
	}
	return schema, recs
}

// TestDecodeRecordZeroAllocs pins the per-record cost of a map stage's read:
// checking lineitem-width records and building the few columns a stage
// reads allocates per column of the batch, nothing per record (a VARCHAR is
// a substring of its record), and projecting a record into a buffer it
// reuses allocates nothing.
func TestDecodeRecordZeroAllocs(t *testing.T) {
	schema, recs := lineitemRecords(1)
	one, many := recs, make([]string, 1024)
	for i := range many {
		many[i] = recs[0]
	}
	rd := newRowReader(schema, []int{0, 4, 5, 6, 8, 10, 15}, []bool{true, false, true, true, false, true, true})
	read := func(recs []string) func() {
		return func() {
			if _, err := rd.read(recs); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a1, an := allocsPerRun(50, read(one)), allocsPerRun(50, read(many)); an != a1 {
		t.Fatalf("masked read of 1,024 lineitem records allocates %.1f times, of one %.1f: want nothing per record", an, a1)
	}
	buf := rd.project(nil, recs[0])
	if allocs := allocsPerRun(200, func() { buf = rd.project(buf[:0], recs[0]) }); allocs != 0 {
		t.Fatalf("projection of a lineitem record allocates %.1f times, want 0", allocs)
	}
}

// TestMapBatchAllocatesPerColumn pins a scan stage's map work per morsel:
// decoding 1,024 lineitem records, filtering them through compiled kernels
// and projecting the survivors allocates no more than 64 records do.
func TestMapBatchAllocatesPerColumn(t *testing.T) {
	schema, recs := lineitemRecords(1024)
	keep := []int{0, 4, 5, 6, 8, 10, 15}
	rel := &interRel{stored: schema, keep: keep, schema: &value.Schema{}, pending: []expr.Expr{
		expr.Bin(expr.OpLt, expr.Col("l_quantity"), expr.Lit(value.NewDouble(30))),
		expr.Bin(expr.OpGe, expr.Col("l_shipdate"), expr.Lit(value.NewDate(9200))),
	}}
	for _, o := range keep {
		rel.schema.Cols = append(rel.schema.Cols, schema.Cols[o])
	}
	m, err := stageMapper("", rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	run := func(recs []string) func() {
		return func() {
			if err := m.MapMorsel(recs, func(_, _ []byte) { emitted++ }); err != nil {
				t.Fatal(err)
			}
		}
	}
	small, large := allocsPerRun(20, run(recs[:64])), allocsPerRun(20, run(recs))
	if emitted == 0 {
		t.Fatal("the filter kept no record")
	}
	if large > small {
		t.Fatalf("decoding and filtering 1,024 lineitem records allocates %.1f times, 64 records %.1f", large, small)
	}
}
