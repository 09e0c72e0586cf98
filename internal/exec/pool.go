package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hana/internal/obs"
)

// DefaultMorselSize is the number of rows one scan or aggregation morsel
// covers. Morsel boundaries depend only on the input size, never on the
// worker count, so the computation graph — and therefore the result — is
// identical at any parallelism.
const DefaultMorselSize = 4096

// Pool is a shared, size-bounded worker pool for intra-query parallelism
// (morsel-driven execution in the style of Leis et al., SIGMOD 2014). One
// pool serves all concurrent queries of an engine: capacity is a hard cap
// on extra goroutines across every Run in flight, so parallel queries
// share the machine instead of multiplying goroutines.
//
// The calling goroutine always participates inline and extra workers are
// acquired non-blocking, so nested Run calls (an aggregation morsel inside
// a scan, a subquery inside a join) degrade to inline execution instead of
// deadlocking when the pool is saturated.
type Pool struct {
	extra chan struct{} // tokens for workers beyond the caller
}

// NewPool creates a pool allowing size concurrent workers (including the
// calling goroutine); size <= 0 uses GOMAXPROCS.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	if size < 1 {
		size = 1
	}
	return &Pool{extra: make(chan struct{}, size-1)}
}

// Size returns the maximum worker count (caller included).
func (p *Pool) Size() int { return cap(p.extra) + 1 }

// Run executes fn for every morsel index in [0, n), using at most width
// workers (width <= 0 means the pool size). Morsels are handed out through
// an atomic counter; workers stop picking up new morsels once the context
// is cancelled or any morsel fails. Run blocks until every started morsel
// finished and returns the number of workers used plus the error of the
// smallest failing morsel index (matching what a serial left-to-right
// execution would surface first among the morsels that ran).
func (p *Pool) Run(ctx context.Context, n, width int, fn func(ctx context.Context, morsel int) error) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return 0, ctx.Err()
	}
	if width <= 0 || width > p.Size() {
		width = p.Size()
	}
	if width > n {
		width = n
	}

	// Record the dispatch as one trace span. Worker timings land in attrs
	// (which vary run to run); the span tree itself stays
	// width-independent because every dispatch contributes exactly one
	// "morsels" span regardless of how many workers it used.
	sp := obs.SpanFrom(ctx).StartSpan("morsels")
	defer sp.End()

	var (
		next       atomic.Int64
		failed     atomic.Bool
		mu         sync.Mutex
		errAt      = -1
		firstErr   error
		perMorsels = make([]int64, width)
		perBusy    = make([]time.Duration, width)
	)
	worker := func(id int) {
		begin := time.Now()
		for {
			if failed.Load() || ctx.Err() != nil {
				break
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			perMorsels[id]++
			if err := fn(ctx, i); err != nil {
				mu.Lock()
				if errAt < 0 || i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
				failed.Store(true)
				break
			}
		}
		perBusy[id] = time.Since(begin)
	}

	var wg sync.WaitGroup
	workers := 1
spawn:
	for workers < width {
		select {
		case p.extra <- struct{}{}:
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				defer func() { <-p.extra }()
				worker(id)
			}(workers)
			workers++
		default:
			// Pool saturated (other queries, or a nested Run already holds
			// the tokens): the caller's goroutine still makes progress
			// inline, so saturation can never deadlock.
			break spawn
		}
	}
	worker(0)
	wg.Wait()

	sp.SetAttrInt("morsels", int64(n))
	sp.SetAttrInt("workers", int64(workers))
	if sp != nil {
		for id := 0; id < workers; id++ {
			key := fmt.Sprintf("w%d", id)
			sp.SetAttr(key, fmt.Sprintf("%d morsels in %s", perMorsels[id], perBusy[id].Round(time.Microsecond)))
		}
	}

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil {
		err = ctx.Err()
	}
	return workers, err
}

// Counters accumulates executor statistics across the pool dispatches of
// one statement. All fields are atomics so concurrent morsel workers and
// nested dispatches can share a single instance. A nil *Counters is valid
// and ignores every update.
type Counters struct {
	// RowsScanned counts visible rows read by table-scan morsels.
	RowsScanned atomic.Int64
	// Morsels counts morsels dispatched across all pool runs.
	Morsels atomic.Int64
	// Workers is the high-water worker count of any single dispatch.
	Workers atomic.Int64
}

// NoteDispatch records one pool run of the given size.
func (c *Counters) NoteDispatch(morsels, workers int) {
	if c == nil {
		return
	}
	c.Morsels.Add(int64(morsels))
	for {
		cur := c.Workers.Load()
		if int64(workers) <= cur || c.Workers.CompareAndSwap(cur, int64(workers)) {
			return
		}
	}
}

// NoteScanned records visible rows read by scan morsels.
func (c *Counters) NoteScanned(rows int) {
	if c == nil {
		return
	}
	c.RowsScanned.Add(int64(rows))
}
