package engine

import (
	"math"
	"strings"
	"testing"

	"hana/internal/value"
)

// A NaN equals a NaN and sorts above every number, +Inf included
// (PostgreSQL's rule), on a column table, a row table and in extended
// storage alike: d = 5 does not meet a NaN, ORDER BY puts NaNs last, GROUP
// BY puts two NaN payloads in one group, and MIN and MAX follow the same
// order.
func TestNaNOrdersAboveEveryNumber(t *testing.T) {
	for _, tc := range []struct{ name, create, using string }{
		{"column", "CREATE TABLE", ""},
		{"row", "CREATE ROW TABLE", ""},
		{"extended", "CREATE TABLE", " USING EXTENDED STORAGE"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t)
			exec1(t, e, tc.create+` n (k BIGINT, d DOUBLE)`+tc.using)
			// Two NaN payloads: strconv's NaN and the one Inf − Inf makes.
			exec1(t, e, `INSERT INTO n VALUES (1, 1e308 * 10), (2, CAST('NaN' AS DOUBLE)), (3, -7.5), (4, 2.5), (5, (1e308 * 10) - (1e308 * 10)), (6, 5)`)
			nans := exec1(t, e, `SELECT d FROM n WHERE k = 2 OR k = 5 ORDER BY k`).Rows
			if len(nans) != 2 || !math.IsNaN(nans[0][0].F) || math.Float64bits(nans[0][0].F) == math.Float64bits(nans[1][0].F) {
				t.Fatalf("want two NaNs of different payloads, got %v", nans)
			}
			got := func(sql string) string {
				t.Helper()
				var out []string
				for _, r := range exec1(t, e, sql).Rows {
					out = append(out, value.Row(r).String())
				}
				return strings.Join(out, " ")
			}
			for _, c := range []struct{ sql, want string }{
				{`SELECT k FROM n WHERE d = 5`, "[6]"},
				{`SELECT k FROM n WHERE d > 1e308`, "[1] [2] [5]"},
				{`SELECT d FROM n ORDER BY d, k`, "[-7.5] [2.5] [5] [+Inf] [NaN] [NaN]"},
				{`SELECT d FROM n ORDER BY d DESC, k`, "[NaN] [NaN] [+Inf] [5] [2.5] [-7.5]"},
				{`SELECT d, COUNT(*) FROM n GROUP BY d ORDER BY d`, "[-7.5, 1] [2.5, 1] [5, 1] [+Inf, 1] [NaN, 2]"},
				{`SELECT MIN(d), MAX(d) FROM n`, "[-7.5, NaN]"},
				{`SELECT MIN(d), MAX(d) FROM n WHERE k <> 1`, "[-7.5, NaN]"},
				{`SELECT MAX(d) FROM n WHERE k = 1 OR k = 3`, "[+Inf]"},
			} {
				if g := got(c.sql); g != c.want {
					t.Errorf("%s: %s, want %s", c.sql, g, c.want)
				}
			}
		})
	}
}
