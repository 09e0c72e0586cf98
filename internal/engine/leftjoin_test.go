package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// leftJoinReads are LEFT JOINs whose ON holds a conjunct beside the key,
// with the rows each returns, rendered by renderOrdered. c.ck and o.ck hold
// NULLs, which never match.
var leftJoinReads = []struct{ sql, want string }{
	// A conjunct on the right side only filters it before the build: a
	// customer whose orders all fail it comes out null-extended.
	{`SELECT c.k, o.k FROM c LEFT JOIN o ON c.ck = o.ck AND o.comment NOT LIKE '%special%' ORDER BY 1, 2`,
		`1,1 / 2,NULL / 3,NULL / 4,5`},
	{`SELECT c.k, COUNT(o.k) FROM c LEFT JOIN o ON c.ck = o.ck AND o.comment NOT LIKE '%special%' GROUP BY c.k ORDER BY 1`,
		`1,1 / 2,0 / 3,0 / 4,1`},
	{`SELECT c.k, o.k FROM c LEFT JOIN o ON c.ck = o.ck AND 1 = 0 ORDER BY 1, 2`,
		`1,NULL / 2,NULL / 3,NULL / 4,NULL`},
	// A conjunct on the left side stays with the join: a left row failing
	// it is not dropped but null-extended.
	{`SELECT c.k, o.k FROM c LEFT JOIN o ON c.ck = o.ck AND c.name <> 'a' ORDER BY 1, 2`,
		`1,NULL / 2,3 / 3,NULL / 4,5`},
	// The same right-side conjunct in WHERE filters the join's output.
	{`SELECT c.k, o.k FROM c LEFT JOIN o ON c.ck = o.ck WHERE o.comment NOT LIKE '%special%' ORDER BY 1, 2`,
		`1,1 / 4,5`},
}

// A LEFT JOIN's ON conjunct that reads only the right side filters the
// right input before the build, and one that reads the left side stays a
// per-match residual: fixed answers on column, ROW, extended and 2-shard
// tables at widths 1 and 4, and the right-only conjunct shows as a filter
// of the right side's scan.
func TestLeftJoinOnConjunctsFilterTheRightSide(t *testing.T) {
	ctx := context.Background()
	for _, pl := range orderPlacements {
		if pl.name == "hybrid" {
			continue
		}
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/width=%d", pl.name, width), func(t *testing.T) {
				cfg := pl.cfg
				cfg.ExtendedStorageDir = t.TempDir()
				e := New(cfg)
				exec1(t, e, pl.create+" c (k BIGINT NOT NULL, ck BIGINT, name VARCHAR(10))"+pl.tail)
				exec1(t, e, pl.create+" o (k BIGINT NOT NULL, ck BIGINT, comment VARCHAR(20))"+pl.tail)
				exec1(t, e, `INSERT INTO c VALUES (1, 10, 'a'), (2, 20, 'b'), (3, NULL, 'c'), (4, 40, 'd')`)
				exec1(t, e, `INSERT INTO o VALUES (1, 10, 'plain'), (2, 10, 'special requests'), (3, 20, 'special requests'), (4, NULL, 'plain'), (5, 40, 'x')`)
				for _, r := range leftJoinReads {
					res, err := e.ExecuteContext(ctx, r.sql, WithParallelism(width))
					if err != nil {
						t.Errorf("%q: %v", r.sql, err)
					} else if got := renderOrdered(res.Rows); got != r.want {
						t.Errorf("%q:\n got %s\nwant %s", r.sql, got, r.want)
					}
				}
				plan := exec1(t, e, "EXPLAIN "+leftJoinReads[0].sql).Plan
				if !strings.Contains(plan, "filter: (o.comment NOT LIKE '%special%')") {
					t.Errorf("the right-only conjunct does not filter the right side:\n%s", plan)
				}
			})
		}
	}
}
