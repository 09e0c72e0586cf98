package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"hana/internal/value"
)

// A cancelled context must surface from ExecuteContext instead of the
// query running to completion: the pool workers check ctx between
// morsels and Run reports ctx.Err().
func TestExecuteContextCancelled(t *testing.T) {
	e := newTestEngine(t)
	exec1(t, e, `CREATE TABLE t (a BIGINT)`)
	exec1(t, e, `INSERT INTO t VALUES (1), (2), (3)`)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecuteContext(ctx, `SELECT COUNT(*) FROM t`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Federated leaves honour the same context.
	if _, err := e.ExecuteContext(ctx, `SELECT * FROM M_TABLES()`); !errors.Is(err, context.Canceled) {
		t.Fatalf("table function: err = %v, want context.Canceled", err)
	}
	// The engine recovers: the same query succeeds with a live context.
	res, err := e.ExecuteContext(context.Background(), `SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0].Int() != 3 {
		t.Fatalf("after cancel: %v %v", res, err)
	}
}

// A deadline stops a statement inside its row loops — the probe of a join
// without keys, which walks every pair of its morsel, and the block's
// projection and sort — not only between pool morsels: a cross join of two
// 3,000-row tables under a 100 ms deadline returns context.DeadlineExceeded,
// never rows, within twice the deadline.
func TestDeadlineStopsCrossJoin(t *testing.T) {
	const n, deadline = 3000, 100 * time.Millisecond
	e := newTestEngine(t)
	for _, name := range []string{"a", "b"} {
		exec1(t, e, `CREATE TABLE `+name+` (x BIGINT)`)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.NewInt(int64(i))}
		}
		if err := e.BulkLoad(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, width := range []int{1, 4} {
		for _, sql := range []string{
			`SELECT COUNT(*) FROM a, b`,
			`SELECT a.x, b.x FROM a, b WHERE a.x + b.x > 10`,
			`SELECT a.x, b.x FROM a, b ORDER BY a.x`,
		} {
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			res, err := e.ExecuteContext(ctx, sql, WithParallelism(width))
			took := time.Since(start)
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				rows := 0
				if res != nil {
					rows = len(res.Rows)
				}
				t.Errorf("width %d %q: %d rows, err = %v, want context.DeadlineExceeded", width, sql, rows, err)
			}
			if took > 2*deadline {
				t.Errorf("width %d %q: returned after %v, past twice the %v deadline", width, sql, took, deadline)
			}
		}
	}
}
