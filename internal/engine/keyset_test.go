package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

// A subquery's key set answers as the same keys written as a literal list:
// x [NOT] IN (SELECT …) against x [NOT] IN (list), and [NOT] EXISTS with
// one correlation equality against the list without its NULL, on every
// placement (column and sharded tables take the set into the scan, ROW,
// extended and hybrid ones through the semi and anti hash joins too) at
// widths 1 and 4. The keys are the ones Compare equates across a payload or
// a kind: NULL in the set and in the probe, an empty set, −0.0 and 0.0, two
// NaN payloads, a BIGINT set probed by DOUBLE (1 and 1.0), 2^53 and 2^53+1,
// DATE against TIMESTAMP, and dictionary-coded against plain VARCHAR. A
// list holding an expression (CAST) is probed by a linear Compare scan, the
// others through the literal key set.
func TestKeySetMatchesLiteralList(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name, probe, key string
		g                int
		list             string // the set's values, NULL included; "" = empty
	}{
		{"ints with NULL", "i", "i", 1, "1, 7, NULL"},
		{"2^53 vs 2^53+1", "i", "i", 2, "9007199254740992"},
		{"2^53 probed by DOUBLE", "x", "i", 2, "9007199254740992"},
		{"BIGINT set probed by DOUBLE", "x", "i", 1, "1, 7, NULL"},
		{"DOUBLE set probed by BIGINT", "i", "x", 3, "-0.0, 1.0"},
		{"-0.0 vs 0.0", "x", "x", 3, "-0.0, 1.0"},
		{"NaN payloads", "x", "x", 4, "CAST('NaN' AS DOUBLE), NULL"},
		{"DATE vs TIMESTAMP", "d", "ts", 5, "TIMESTAMP '1970-01-01 00:00:00.000001', TIMESTAMP '1970-01-02 00:00:00'"},
		{"TIMESTAMP vs DATE", "ts", "d", 5, "DATE '1970-01-02', DATE '2022-01-01'"},
		{"VARCHAR", "v", "v", 6, "'b', 'zz', NULL"},
		{"computed VARCHAR", "v", "LOWER(v)", 6, "'b', 'zz', NULL"},
		{"empty set", "i", "i", 99, ""},
	}
	for _, pl := range orderPlacements {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				cfg := pl.cfg
				cfg.ExtendedStorageDir = t.TempDir()
				e := New(cfg)
				cols := " (k BIGINT NOT NULL, g BIGINT, i BIGINT, x DOUBLE, d DATE, ts TIMESTAMP, v VARCHAR(10))"
				exec1(t, e, pl.create+" p"+cols+pl.tail)
				exec1(t, e, pl.create+" s"+cols+pl.tail)
				nan1, nan2 := "(1e308 * 10) - (1e308 * 10)", "CAST('NaN' AS DOUBLE)"
				exec1(t, e, `INSERT INTO s VALUES
					(1, 1, 1, NULL, NULL, NULL, NULL), (2, 1, 7, NULL, NULL, NULL, NULL),
					(3, 1, NULL, NULL, NULL, NULL, NULL), (4, 1, 7, NULL, NULL, NULL, NULL),
					(5, 2, 9007199254740992, NULL, NULL, NULL, NULL),
					(6, 3, NULL, -0.0, NULL, NULL, NULL), (7, 3, NULL, 1.0, NULL, NULL, NULL), (8, 3, NULL, 0.0, NULL, NULL, NULL),
					(9, 4, NULL, `+nan1+`, NULL, NULL, NULL), (10, 4, NULL, `+nan2+`, NULL, NULL, NULL), (11, 4, NULL, NULL, NULL, NULL, NULL),
					(12, 5, NULL, NULL, DATE '1970-01-02', TIMESTAMP '1970-01-01 00:00:00.000001', NULL),
					(13, 5, NULL, NULL, DATE '2022-01-01', TIMESTAMP '1970-01-02 00:00:00', NULL),
					(14, 6, NULL, NULL, NULL, NULL, 'b'), (15, 6, NULL, NULL, NULL, NULL, 'zz'), (16, 6, NULL, NULL, NULL, NULL, NULL),
					(17, 6, NULL, NULL, NULL, NULL, 'b')`)
				exec1(t, e, `INSERT INTO p VALUES
					(1, 0, 1, 1.0, DATE '1970-01-02', TIMESTAMP '1970-01-01 00:00:00.000001', 'b'),
					(2, 0, 2, 7.5, DATE '1970-01-01', TIMESTAMP '1970-01-02 00:00:00', 'B'),
					(3, 0, 7, 7.0, DATE '2022-01-01', TIMESTAMP '2022-01-01 00:00:00', 'zz'),
					(4, 0, NULL, NULL, NULL, NULL, NULL),
					(5, 0, 9007199254740993, 9007199254740992.0, DATE '1970-01-03', TIMESTAMP '1970-01-01 00:00:00.000002', 'a'),
					(6, 0, 9007199254740992, -0.0, NULL, NULL, 'z'),
					(7, 0, 0, 0.0, NULL, NULL, ''),
					(8, 0, NULL, `+nan1+`, NULL, NULL, 'zz'),
					(9, 0, NULL, `+nan2+`, NULL, NULL, NULL),
					(10, 0, 1, 2.0, NULL, NULL, 'c')`)
				nans := exec1(t, e, `SELECT x FROM p WHERE k IN (8, 9) ORDER BY k`).Rows
				if len(nans) != 2 || math.Float64bits(nans[0][0].F) == math.Float64bits(nans[1][0].F) {
					t.Fatalf("want two NaNs of different payloads, got %v", nans)
				}
				keys := func(sql string) string {
					t.Helper()
					res, err := e.ExecuteContext(ctx, sql, WithParallelism(width))
					if err != nil {
						t.Fatalf("%s: %v", sql, err)
					}
					var ks []string
					for _, r := range res.Rows {
						ks = append(ks, r[0].String())
					}
					return strings.Join(ks, ",")
				}
				for _, c := range cases {
					sub := fmt.Sprintf("SELECT %s FROM s WHERE g = %d", c.key, c.g)
					corr := fmt.Sprintf("SELECT * FROM s WHERE %s = p.%s AND g = %d", c.key, c.probe, c.g)
					in, notIn := "1 = 0", "1 = 1"
					if c.list != "" {
						in, notIn = fmt.Sprintf("%s IN (%s)", c.probe, c.list), fmt.Sprintf("%s NOT IN (%s)", c.probe, c.list)
					}
					exists, notExists := "1 = 0", "1 = 1"
					if nonNull := strings.TrimSuffix(strings.TrimSuffix(c.list, "NULL"), ", "); nonNull != "" {
						exists = fmt.Sprintf("%s IN (%s)", c.probe, nonNull)
						notExists = fmt.Sprintf("(%s IS NULL OR %s NOT IN (%s))", c.probe, c.probe, nonNull)
					}
					for _, pair := range [][2]string{
						{fmt.Sprintf("%s IN (%s)", c.probe, sub), in},
						{fmt.Sprintf("%s NOT IN (%s)", c.probe, sub), notIn},
						{fmt.Sprintf("EXISTS (%s)", corr), exists},
						{fmt.Sprintf("NOT EXISTS (%s)", corr), notExists},
					} {
						q := "SELECT k FROM p WHERE %s ORDER BY k"
						got, want := keys(fmt.Sprintf(q, pair[0])), keys(fmt.Sprintf(q, pair[1]))
						if got != want {
							t.Errorf("%s: %s keeps [%s]; %s keeps [%s]", c.name, pair[0], got, pair[1], want)
						}
					}
				}
			})
		}
	}
}
