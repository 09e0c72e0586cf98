// Fixture: context plumbing the ctxflow analyzer must accept.
package ctxflow

import (
	"context"
	"time"
)

func pull(n int) error { return nil }

func pullCtx(ctx context.Context, n int) error { return ctx.Err() }

// Worker drains queues; Drain has a ctx-aware sibling.
type Worker struct{ n int }

// Drain is the legacy entry point.
func (w *Worker) Drain(n int) error { return nil }

// DrainContext is the ctx-aware sibling.
func (w *Worker) DrainContext(ctx context.Context, n int) error { return ctx.Err() }

// threaded passes the caller's ctx to the ctx-aware siblings.
func threaded(ctx context.Context, w *Worker) error {
	if err := pullCtx(ctx, 1); err != nil {
		return err
	}
	return w.DrainContext(ctx, 2)
}

// nilGuard is defensive defaulting, not a dropped caller context.
func nilGuard(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return pullCtx(ctx, 3)
}

// ownScope declares its own context parameter; the literal does not
// inherit the enclosing (empty) scope.
func ownScope() func(ctx context.Context) error {
	return func(ctx context.Context) error {
		return pullCtx(ctx, 4)
	}
}

// wait is the ctx-aware sleep shape the analyzer pushes toward.
func wait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
