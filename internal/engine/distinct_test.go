package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hana/internal/value"
)

// COUNT(DISTINCT e) and SUM(DISTINCT e) count and add the values SELECT
// DISTINCT e and GROUP BY e tell apart, and no others: the three equate what
// value.Compare equates — 1 and 1.0, −0.0 and 0.0, two NaN payloads — on
// every placement, at widths 1 and 4. The counts are fixed, not only
// compared, so a defect all three forms shared would show too.
func TestDistinctAggregateEquatesComparedValues(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name, e, where string
		count          int64
	}{
		{"1 vs 1.0", "CASE WHEN k = 1 THEN i ELSE x END", "k <= 2", 1},
		{"-0.0 vs 0.0", "x", "k IN (3, 4)", 1},
		{"NaN payloads", "x", "k IN (5, 6)", 1},
		{"all", "CASE WHEN k = 1 THEN i ELSE x END", "k > 0", 3},
	}
	for _, pl := range orderPlacements {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				cfg := pl.cfg
				cfg.ExtendedStorageDir = t.TempDir()
				e := New(cfg)
				exec1(t, e, pl.create+" m (k BIGINT NOT NULL, i BIGINT, x DOUBLE)"+pl.tail)
				// Two NaN payloads: the one Inf − Inf makes and strconv's.
				exec1(t, e, `INSERT INTO m VALUES (1, 1, 1.0), (2, 1, 1.0), (3, 0, -0.0), (4, 0, 0.0),
					(5, NULL, (1e308 * 10) - (1e308 * 10)), (6, NULL, CAST('NaN' AS DOUBLE)), (7, NULL, NULL)`)
				nans := exec1(t, e, `SELECT x FROM m WHERE k IN (5, 6) ORDER BY k`).Rows
				if len(nans) != 2 || math.Float64bits(nans[0][0].F) == math.Float64bits(nans[1][0].F) {
					t.Fatalf("want two NaNs of different payloads, got %v", nans)
				}
				query := func(sql string) []value.Row {
					t.Helper()
					res, err := e.ExecuteContext(ctx, sql, WithParallelism(width))
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					return res.Rows
				}
				for _, c := range cases {
					agg := query(fmt.Sprintf("SELECT COUNT(DISTINCT %s), SUM(DISTINCT %s) FROM m WHERE %s", c.e, c.e, c.where))
					count, sum := agg[0][0], agg[0][1]
					if count.I != c.count {
						t.Errorf("%s: COUNT(DISTINCT %s) = %v, want %d", c.name, c.e, count, c.count)
					}
					for _, form := range []string{
						fmt.Sprintf("SELECT DISTINCT %s FROM m WHERE %s", c.e, c.where),
						fmt.Sprintf("SELECT %s FROM m WHERE %s GROUP BY %s", c.e, c.where, c.e),
					} {
						n, s := distinctCountSum(query(form))
						if n != count.I || value.Compare(s, sum) != 0 {
							t.Errorf("%s: %s has %d values summing to %v; COUNT(DISTINCT) = %v, SUM(DISTINCT) = %v", c.name, form, n, s, count, sum)
						}
					}
				}
			})
		}
	}
}

// distinctCountSum counts the non-NULL first-column values of rows and sums
// them as SUM does: BIGINT while every value is one, DOUBLE otherwise, NULL
// over none.
func distinctCountSum(rows []value.Row) (int64, value.Value) {
	var n, si int64
	var sf float64
	ints := true
	for _, r := range rows {
		v := r[0]
		if v.IsNull() {
			continue
		}
		n++
		si += v.I
		sf += v.Float()
		ints = ints && v.K == value.KindInt
	}
	switch {
	case n == 0:
		return 0, value.Null
	case ints:
		return n, value.NewInt(si)
	}
	return n, value.NewDouble(sf)
}
