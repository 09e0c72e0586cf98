package dist

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hana/internal/exec"
	"hana/internal/expr"
	"hana/internal/value"
)

// equivRows is the unsharded input of TestFragmentsEqualExecOnUnshardedRows:
// T(K, G, V) with a NULL in every column somewhere — NULL join keys, NULL
// group keys, NULL aggregate arguments — and enough rows per shard that a
// worker cuts more than one morsel.
func equivRows() []value.Row {
	const n = 3*exec.DefaultMorselSize + 123
	rows := make([]value.Row, n)
	for i := range rows {
		k, g, v := value.NewInt(int64(i%97)), value.NewString(fmt.Sprintf("g%d", i%5)), value.NewInt(int64(i%13-6))
		if i%11 == 0 {
			k = value.Null
		}
		if i%7 == 0 {
			g = value.Null
		}
		if i%5 == 0 {
			v = value.Null
		}
		rows[i] = value.Row{k, g, v}
	}
	return rows
}

func equivSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "K", Kind: value.KindInt, Nullable: true},
		value.Column{Name: "G", Kind: value.KindVarchar, Nullable: true},
		value.Column{Name: "V", Kind: value.KindInt, Nullable: true},
	)
}

// TestFragmentsEqualExecOnUnshardedRows pins the worker contract: a scan,
// aggregate or join fragment gathered over any sharding of the rows —
// merged, and for aggregates finalised — equals the rows filtered one at a
// time and, for the latter two, exec's own operator run once over them
// unsharded, row for row and in order. Shards that hold more than
// mergeAfter rows were delta-merged there, so their morsels read main
// (sorted dictionary codes), delta, and one range straddling the two; rows
// written in sequence order commit out of it.
func TestFragmentsEqualExecOnUnshardedRows(t *testing.T) {
	rows := equivRows()
	schema := equivSchema().Qualify("T")

	// Every shippable call, each with and without DISTINCT.
	calls := []AggCall{{Func: "COUNT"}}
	for _, fn := range []string{"COUNT", "SUM", "MIN", "MAX"} {
		calls = append(calls, AggCall{Func: fn, Arg: "V"}, AggCall{Func: fn, Arg: "V", Distinct: true})
	}
	buildCols := []value.Column{{Name: "R.K", Kind: value.KindInt, Nullable: true}, {Name: "R.W", Kind: value.KindInt}}
	var buildRows []value.Row
	for k := int64(0); k < 40; k++ {
		buildRows = append(buildRows, intRow(k, k), intRow(k, k+1)) // duplicate build keys
	}
	buildRows = append(buildRows, value.Row{value.Null, value.NewInt(1)}) // NULL build key
	join := &JoinFragment{ProbeKeys: []string{"T.K"}, BuildKeys: []string{"R.K"}, Residual: "MOD(R.W + T.K, 3) <> 0", BuildCols: buildCols, BuildRows: buildRows}

	const mergeAfter = exec.DefaultMorselSize + 904
	cases := []struct {
		name   string
		where  string
		needed []bool // nil = all; a false column reads NULL
		agg    *AggFragment
		join   *JoinFragment
	}{
		{name: "grouped", agg: &AggFragment{GroupBy: []string{"T.G"}, Aggs: calls}},
		{name: "grouped-filtered", where: "T.V > 0", agg: &AggFragment{GroupBy: []string{"T.G", "MOD(T.K, 3)"}, Aggs: calls}},
		{name: "global", agg: &AggFragment{Aggs: calls}},
		{name: "global-no-rows", where: "T.V > 100", agg: &AggFragment{Aggs: calls}},
		{name: "join", join: join},
		{name: "join-filtered", where: "T.G IS NOT NULL", join: join},
		{name: "scan-varchar-eq", where: "T.G = 'g1'", needed: []bool{true, true, false}},
		{name: "grouped-varchar-in", where: "T.G IN ('g1', 'g3')", needed: []bool{false, true, true}, agg: &AggFragment{GroupBy: []string{"T.G"}, Aggs: calls}},
		{name: "join-varchar-range", where: "T.G >= 'g2' AND T.G < 'g4'", needed: []bool{true, true, false}, join: join},
	}
	// Row i lives on shard i mod (shards-1): the last shard of every
	// multi-shard fleet stays empty. Rows are written in sequence order;
	// every holdBack-th row is inserted by a transaction of its own, and
	// those commit after the rest, the first half of them ascending and the
	// rest descending.
	type load struct {
		seqs []int64
		rows []value.Row
	}
	fleets := map[int]*Local{}
	for shards, holdBack := range map[int]int{1: 17, 2: 29, 4: 29} {
		workers := make([]*Worker, shards)
		loads := make([]load, shards)
		for i, row := range rows {
			l := &loads[i%max(1, shards-1)]
			l.seqs, l.rows = append(l.seqs, int64(i)), append(l.rows, row)
		}
		for i := range workers {
			workers[i] = NewWorker(i, 2, nil)
			workers[i].Register("T", equivSchema())
			l := loads[i]
			tids := writeShard(t, workers[i], "T", i, l.seqs, l.rows, func(k int) bool { return l.seqs[k]%int64(holdBack) == 0 }, mergeAfter)
			slices.Reverse(tids[len(tids)/2:])
			for _, tid := range tids {
				if err := workers[i].Commit(tid, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		fleets[shards] = NewLocal(workers)
	}

	for _, tc := range cases {
		// The reference: filter row by row, blank the columns the fragment
		// does not mark, then one exec operator over all the rows.
		pred, err := parseExpr(tc.where, schema)
		if err != nil {
			t.Fatal(err)
		}
		var kept []value.Row
		for _, row := range rows {
			if pred != nil {
				if ok, err := expr.Truthy(pred, row); err != nil {
					t.Fatal(err)
				} else if !ok {
					continue
				}
			}
			row = row.Clone()
			for c := range row {
				if tc.needed != nil && !tc.needed[c] {
					row[c] = value.Null
				}
			}
			kept = append(kept, row)
		}
		want := kept
		var specs []exec.AggSpec
		switch {
		case tc.agg != nil:
			groupBy, err := parseExprList(tc.agg.GroupBy, schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.agg.Aggs {
				arg, err := parseExpr(c.Arg, schema)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, exec.AggSpec{Func: c.Func, Arg: arg, Distinct: c.Distinct})
			}
			out, err := (&exec.ParallelHashAggregate{In: exec.RowRel(schema, kept, nil), GroupBy: groupBy, Aggs: specs, Out: value.NewSchema()}).Run()
			if err != nil {
				t.Fatal(err)
			}
			want = out.AllRows()
		case tc.join != nil:
			buildSchema := &value.Schema{Cols: buildCols}
			keys := func(sqls []string, s *value.Schema) []expr.Expr {
				es, err := parseExprList(sqls, s)
				if err != nil {
					t.Fatal(err)
				}
				return es
			}
			residual, err := parseExpr(tc.join.Residual, schema.Concat(buildSchema))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := exec.HashJoin(context.Background(), nil, 0, 0, nil, exec.JoinInner,
				exec.RowRel(schema, kept, nil), exec.RowRel(buildSchema, buildRows, nil),
				keys(tc.join.ProbeKeys, schema), keys(tc.join.BuildKeys, buildSchema), residual)
			if err != nil {
				t.Fatal(err)
			}
			want = out.AllRows()
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference produced nothing to compare", tc.name)
		}

		for _, shards := range []int{1, 2, 4} {
			for _, wire := range []bool{false, true} {
				tr := fleets[shards]
				tr.Wire = wire
				topo := Topology{Shards: shards, Replicas: 1}
				res := gather(t, tr, topo, &Fragment{Snapshot: 1, Table: "T", Binding: "T", Where: tc.where, Needed: tc.needed, Agg: tc.agg, Join: tc.join}, 0)
				got := mergedRows(res)
				if tc.agg != nil {
					out, err := res.Partial.Finalize(value.NewSchema(), specs, len(tc.agg.GroupBy) == 0)
					if err != nil {
						t.Fatal(err)
					}
					got = out.AllRows()
				}
				if len(got) != len(want) {
					t.Fatalf("%s shards=%d wire=%v: %d rows, want %d", tc.name, shards, wire, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("%s shards=%d wire=%v: row %d = %v, want %v", tc.name, shards, wire, i, got[i], want[i])
					}
				}
			}
		}
	}
}
