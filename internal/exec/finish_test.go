package exec

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"hana/internal/value"
)

// sortRows is the row-at-a-time ORDER BY Finish is checked against: it
// stably sorts rows in place by keys, each evaluated per row by Eval and
// compared under value.Compare.
func sortRows(rows []value.Row, keys []SortKey) error {
	type keyed struct {
		row  value.Row
		keys []value.Value
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		kv := make([]value.Value, len(keys))
		for j, k := range keys {
			v, err := k.E.Eval(r)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		ks[i] = keyed{row: r, keys: kv}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		for j, k := range keys {
			c := value.Compare(ks[a].keys[j], ks[b].keys[j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for i, k := range ks {
		rows[i] = k.row
	}
	return nil
}

// distinctRows is the row-at-a-time DISTINCT: it keeps each row no earlier
// row equals under value.KeysEqual, in order.
func distinctRows(rows []value.Row) []value.Row {
	var index value.Index // over kept
	var kept []value.Row
	for _, r := range rows {
		w := index.Probe(value.KeyHash(r))
		o := index.Next(&w)
		for o >= 0 && !value.KeysEqual(r, kept[o]) {
			o = index.Next(&w)
		}
		if o < 0 {
			index.Insert(w)
			kept = append(kept, r)
		}
	}
	return kept
}

// referenceFinish is Block.Finish row by row over rows, the live rows of its
// input: the projection by Eval, distinctRows, sortRows, the hidden sort
// columns dropped, then LIMIT. The block has no HAVING.
func referenceFinish(b *Block, rows []value.Row) ([]value.Row, error) {
	if b.exprs != nil {
		proj := make([]value.Row, len(rows))
		for i, r := range rows {
			proj[i] = make(value.Row, len(b.exprs))
			for j, e := range b.exprs {
				v, err := e.Eval(r)
				if err != nil {
					return nil, err
				}
				proj[i][j] = v
			}
		}
		rows = proj
	}
	if b.distinct {
		rows = distinctRows(rows)
	}
	if err := sortRows(rows, b.keys); err != nil {
		return nil, err
	}
	for i, r := range rows {
		rows[i] = r[:b.Out.Len()]
	}
	if b.limit >= 0 && int64(len(rows)) > b.limit {
		rows = rows[:b.limit]
	}
	return rows, nil
}

// checkFinish runs the block of sql, analysed over in's schema (by
// AnalyzeProjected when projected), through Finish over in and against
// referenceFinish over in's live rows, payloads compared bit for bit: a
// DISTINCT keeps each first occurrence's. in is consumed.
func checkFinish(t *testing.T, sql string, projected bool, in Rel) {
	t.Helper()
	sel := parseSelect(t, sql)
	analyze := AnalyzeBlock
	if projected {
		analyze = AnalyzeProjected
	}
	blk, err := analyze(sel, in.Schema)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	want, err := referenceFinish(blk, in.AllRows())
	if err != nil {
		t.Fatalf("%s: reference: %v", sql, err)
	}
	got, _, err := blk.Finish(context.Background(), in, nil)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if g, w := renderExact(got.AllRows()), renderExact(want); g != w {
		t.Errorf("%s:\n%s\nwant\n%s", sql, g, w)
	}
	if got.Schema.Len() != blk.Out.Len() {
		t.Errorf("%s: %d output columns, want %d", sql, got.Schema.Len(), blk.Out.Len())
	}
}

// finishInput is the edge-case input of the Finish cases: three batches of
// aggSchema whose selection skips a junk row before each live one. s is
// dictionary-coded in the first and third batch and materialized Strs in
// the second; i holds NULL, ties and 2^53 beside 2^53 + 1 (one hash, two
// values); d NULL, −0.0 beside 0.0 and two NaN payloads; x, a boxed Vals
// column, 1 beside 1.0; p is pruned; v numbers the rows.
func finishInput() Rel {
	nan2 := value.NewDouble(math.Float64frombits(0xfff8000000000001))
	negZero := value.NewDouble(math.Copysign(0, -1))
	big := int64(1) << 53
	second := aggBatch([]string{"zz", "c", "a"}, []aggRow{
		{str("c"), value.NewInt(big + 1), nan2, value.NewDouble(1), 6},
		{str("a"), value.Null, value.NewDouble(0), value.NewInt(1), 7},
		{str("zz"), value.NewInt(7), value.Null, value.Null, 8},
		{nil, value.NewInt(big), negZero, value.NewString("q"), 9},
	})
	s := &second.Cols[0]
	s.Strs = make([]string, second.N)
	for i := range s.Strs {
		if !s.Null(i) {
			s.Strs[i] = s.Str(i)
		}
	}
	s.Codes, s.Dict = nil, nil
	return Rel{Schema: aggSchema, Batches: []*value.Batch{
		aggBatch([]string{"a", "b", "c"}, []aggRow{
			{str("a"), value.NewInt(big), negZero, value.NewInt(1), 1},
			{str("b"), value.NewInt(big + 1), value.NewDouble(math.NaN()), value.NewDouble(2.5), 2},
			{nil, value.Null, value.Null, value.Null, 3},
			{str("c"), value.NewInt(big), value.NewDouble(0), value.NewString("q"), 4},
			{str("a"), value.NewInt(7), value.NewDouble(1.5), value.NewDouble(1), 5},
		}),
		second,
		aggBatch([]string{"b", "a"}, []aggRow{
			{str("b"), value.NewInt(7), value.NewDouble(1.5), value.NewInt(1), 10},
			{str("a"), value.NewInt(big), nan2, value.NewDouble(2.5), 11},
			{str("b"), value.NewInt(big + 1), value.NewDouble(0), value.Null, 12},
		}),
	}}
}

// TestSortMultiKey runs ORDER BY through Finish over batches with
// selection vectors against sortRows: two keys one DESC, ties (the sort
// must be stable), NULL, −0.0 beside 0.0, NaN payloads, 1 beside 1.0 in a
// boxed column, a dictionary-coded VARCHAR key beside a materialized one,
// hidden sort keys, an expression key under AnalyzeProjected, and LIMIT
// below, at and above the row count.
func TestSortMultiKey(t *testing.T) {
	s := intSchema("a", "b")
	in := selectedBatches(s, rowsOf([]int64{1, 2}, []int64{2, 1}, []int64{1, 1}, []int64{2, 2}, []int64{1, 3}, []int64{2, 0}, []int64{1, 2}), value.Row{value.NewInt(-1), value.NewInt(-1)})
	blk, err := AnalyzeBlock(parseSelect(t, "SELECT a, b FROM t ORDER BY a, b DESC"), s)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := blk.Finish(context.Background(), in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.AllRows()) != "[[1, 3] [1, 2] [1, 2] [1, 1] [2, 2] [2, 1] [2, 0]]" {
		t.Fatalf("ORDER BY a, b DESC = %v", got.AllRows())
	}
	for _, sql := range []string{
		"SELECT i, v FROM t ORDER BY i",
		"SELECT i, v FROM t ORDER BY i DESC",
		"SELECT d, v FROM t ORDER BY d",
		"SELECT d, v FROM t ORDER BY d DESC, v",
		"SELECT d, s FROM t ORDER BY d DESC",
		"SELECT s, v FROM t ORDER BY s DESC",
		"SELECT s, i FROM t ORDER BY s, i DESC",
		"SELECT x, v FROM t ORDER BY x",
		"SELECT x, d FROM t ORDER BY x DESC, d",
		"SELECT v FROM t ORDER BY d, i",
		"SELECT s FROM t ORDER BY x DESC, v DESC",
		"SELECT i + v AS w, s FROM t ORDER BY 1 DESC",
		"SELECT i AS k, v FROM t ORDER BY k LIMIT 5",
		"SELECT i AS k, v FROM t ORDER BY k LIMIT 12",
		"SELECT i AS k, v FROM t ORDER BY k LIMIT 20",
		"SELECT i AS k, v FROM t ORDER BY k LIMIT 0",
		"SELECT d FROM t ORDER BY p, d",
	} {
		checkFinish(t, sql, false, finishInput())
	}
	for _, sql := range []string{
		"SELECT * FROM t ORDER BY v * 2 + i DESC",
		"SELECT * FROM t ORDER BY d * 2, v LIMIT 4",
		"SELECT * FROM t ORDER BY s DESC LIMIT 30",
	} {
		checkFinish(t, sql, true, finishInput())
	}
}

// TestDistinct runs DISTINCT through Finish over batches with selection
// vectors against distinctRows: the first occurrence of each row stays, in
// order, with its payload. 2^53 and 2^53 + 1 share a hash and stay apart;
// −0.0 and 0.0, the NaN payloads, 1 and 1.0, and a string coded in one
// batch and materialized in the next are each one value; NULL equals NULL.
func TestDistinct(t *testing.T) {
	s := intSchema("a")
	blk, err := AnalyzeBlock(parseSelect(t, "SELECT DISTINCT a FROM t"), s)
	if err != nil {
		t.Fatal(err)
	}
	in := selectedBatches(s, rowsOf([]int64{1}, []int64{2}, []int64{1}, []int64{3}, []int64{2}, []int64{3}, []int64{4}), value.Row{value.NewInt(1)})
	got, _, err := blk.Finish(context.Background(), in, nil)
	if err != nil || fmt.Sprint(got.AllRows()) != "[[1] [2] [3] [4]]" {
		t.Fatalf("distinct = %v, %v", got.AllRows(), err)
	}
	for _, sql := range []string{
		"SELECT DISTINCT i FROM t",
		"SELECT DISTINCT d FROM t",
		"SELECT DISTINCT s FROM t",
		"SELECT DISTINCT x FROM t",
		"SELECT DISTINCT p FROM t",
		"SELECT DISTINCT s, i FROM t",
		"SELECT DISTINCT x, d FROM t",
		"SELECT DISTINCT s, i FROM t ORDER BY i DESC LIMIT 3",
		"SELECT DISTINCT d FROM t ORDER BY d",
		"SELECT DISTINCT d FROM t LIMIT 2",
		"SELECT DISTINCT s FROM t LIMIT 3",
		"SELECT DISTINCT s FROM t LIMIT 9",
	} {
		checkFinish(t, sql, false, finishInput())
	}
}

// TestSortStableAndTotal sorts random keys with NULLs (which order first)
// and ties through Finish, over 5-row batches with selection vectors, both
// ways: the output must be sortRows', ordered, and stable within ties.
func TestSortStableAndTotal(t *testing.T) {
	s := intSchema("a", "seq")
	junk := value.Row{value.NewInt(-7), value.NewInt(-1)}
	for _, desc := range []bool{false, true} {
		sql := "SELECT a, seq FROM t ORDER BY a"
		if desc {
			sql += " DESC"
		}
		blk, err := AnalyzeBlock(parseSelect(t, sql), s)
		if err != nil {
			t.Fatal(err)
		}
		f := func(keys []uint8) bool {
			rows := make([]value.Row, len(keys))
			for i, k := range keys {
				kv := value.NewInt(int64(k % 5))
				if k%11 == 0 {
					kv = value.Null
				}
				rows[i] = value.Row{kv, value.NewInt(int64(i))}
			}
			out, _, err := blk.Finish(context.Background(), selectedBatches(s, rows, junk), nil)
			if err != nil {
				return false
			}
			got := out.AllRows()
			if err := sortRows(rows, blk.keys); err != nil || fmt.Sprint(got) != fmt.Sprint(rows) {
				return false
			}
			for i := 1; i < len(got); i++ {
				c := value.Compare(got[i-1][0], got[i][0])
				if desc {
					c = -c
				}
				if c > 0 || c == 0 && got[i-1][1].Int() > got[i][1].Int() {
					return false // out of order, or ties out of input order
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}
