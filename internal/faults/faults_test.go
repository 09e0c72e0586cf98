package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestClassification(t *testing.T) {
	base := errors.New("boom")
	tr := Transient(base)
	fa := Fatal(base)
	if !IsTransient(tr) || IsTransient(fa) || IsTransient(base) {
		t.Fatalf("transient classification wrong")
	}
	if !IsFatal(fa) || IsFatal(tr) || IsFatal(base) {
		t.Fatalf("fatal classification wrong")
	}
	if Transient(nil) != nil || Fatal(nil) != nil {
		t.Fatalf("nil must stay nil")
	}
	// Classification survives wrapping.
	wrapped := fmt.Errorf("op failed: %w", tr)
	if !IsTransient(wrapped) {
		t.Fatalf("wrapping lost transient class")
	}
	if !errors.Is(wrapped, base) {
		t.Fatalf("original error lost from chain")
	}
	if !IsClassified(tr) || !IsClassified(fa) || IsClassified(base) {
		t.Fatalf("IsClassified wrong")
	}
	open := fmt.Errorf("%w: hive", ErrCircuitOpen)
	if !IsClassified(open) {
		t.Fatalf("breaker rejection must count as classified")
	}
}

func TestInjectorNilSafe(t *testing.T) {
	var in *Injector
	if err := in.Check("fed.query.hive"); err != nil {
		t.Fatalf("nil injector must be a no-op, got %v", err)
	}
	if in.Calls("fed") != 0 || in.Injected("fed") != 0 {
		t.Fatalf("nil injector stats must be zero")
	}
}

func TestInjectorFailNAndHierarchy(t *testing.T) {
	in := New(1)
	in.FailN("txn.commit", 2)
	// Hierarchical match: schedule on the prefix fires for full names.
	if err := in.Check("txn.commit.extstore:orders"); !IsTransient(err) {
		t.Fatalf("want injected transient, got %v", err)
	}
	if err := in.Check("txn.commit.extstore:psa"); !IsTransient(err) {
		t.Fatalf("want injected transient, got %v", err)
	}
	if err := in.Check("txn.commit.extstore:psa"); err != nil {
		t.Fatalf("schedule drained, want nil, got %v", err)
	}
	// Sibling site untouched.
	if err := in.Check("txn.prepare.extstore:psa"); err != nil {
		t.Fatalf("prepare must be clean, got %v", err)
	}
	if got := in.Calls("txn.commit"); got != 3 {
		t.Fatalf("Calls(txn.commit) = %d, want 3", got)
	}
	if got := in.Injected("txn.commit"); got != 2 {
		t.Fatalf("Injected(txn.commit) = %d, want 2", got)
	}
	if got := in.Injected("txn"); got != 2 {
		t.Fatalf("Injected(txn) = %d, want 2", got)
	}
}

func TestInjectorExactBeatsPrefix(t *testing.T) {
	in := New(1)
	in.FailN("hdfs", 5)
	in.Clear("hdfs")
	in.FailN("hdfs.write", 1)
	if err := in.Check("hdfs.read"); err != nil {
		t.Fatalf("hdfs.read must not match hdfs.write, got %v", err)
	}
	if err := in.Check("hdfs.write"); !IsTransient(err) {
		t.Fatalf("want fault at hdfs.write, got %v", err)
	}
}

func TestInjectorFailWithAndFatal(t *testing.T) {
	in := New(1)
	sentinel := errors.New("replica timeout")
	in.FailWith("hdfs.read", 1, sentinel)
	err := in.Check("hdfs.read")
	if !errors.Is(err, sentinel) || !IsTransient(err) {
		t.Fatalf("want transient sentinel, got %v", err)
	}
	in.FailFatal("fed.query.hive", 1)
	err = in.Check("fed.query.hive")
	if !IsFatal(err) {
		t.Fatalf("want fatal injected error, got %v", err)
	}
}

func TestInjectorProbDeterministic(t *testing.T) {
	run := func() []bool {
		in := New(42)
		in.FailProb("fed.query", 0.5)
		out := make([]bool, 32)
		for i := range out {
			out[i] = in.Check("fed.query.hive") != nil
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different fault stream at %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("p=0.5 produced degenerate stream: %d/%d", fails, len(a))
	}
}

func TestInjectorLatency(t *testing.T) {
	in := New(1)
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })
	in.Latency("fed.query", 5*time.Millisecond)
	if err := in.Check("fed.query.hive"); err != nil {
		t.Fatalf("latency-only schedule must not fail, got %v", err)
	}
	if slept != 5*time.Millisecond {
		t.Fatalf("slept %v, want 5ms", slept)
	}
}

func TestInjectorConcurrentCheck(t *testing.T) {
	in := New(7)
	in.FailN("fed.query", 50)
	var wg sync.WaitGroup
	var mu sync.Mutex
	injected := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if in.Check("fed.query.hive") != nil {
					mu.Lock()
					injected++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if injected != 50 {
		t.Fatalf("FailN(50) fired %d times under concurrency", injected)
	}
}

func TestRetryDo(t *testing.T) {
	var delays []time.Duration
	p := RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    3 * time.Millisecond,
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	}
	n := 0
	err := p.Do("fed.query.hive", func() error {
		n++
		if n < 3 {
			return Transient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("retry did not absorb transients: err=%v n=%d", err, n)
	}
	if len(delays) != 2 {
		t.Fatalf("want 2 backoff sleeps, got %d", len(delays))
	}
	for i, d := range delays {
		lo := time.Duration(float64(time.Millisecond<<i) * 0.5)
		hi := time.Millisecond << i
		if i >= 1 && hi > 3*time.Millisecond {
			hi = 3 * time.Millisecond
		}
		if d < lo || d > hi {
			t.Fatalf("delay %d = %v outside [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetryGivesUpAndKeepsChain(t *testing.T) {
	base := errors.New("still down")
	p := RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	n := 0
	err := p.Do("op", func() error { n++; return Transient(base) })
	if n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}
	if !errors.Is(err, base) || !IsTransient(err) {
		t.Fatalf("final error lost chain or class: %v", err)
	}
}

func TestRetryStopsOnFatalAndUnclassified(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}
	n := 0
	_ = p.Do("op", func() error { n++; return Fatal(errors.New("nope")) })
	if n != 1 {
		t.Fatalf("fatal retried: %d attempts", n)
	}
	n = 0
	_ = p.Do("op", func() error { n++; return errors.New("semantic") })
	if n != 1 {
		t.Fatalf("unclassified retried: %d attempts", n)
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var ds []time.Duration
		p := RetryPolicy{
			MaxAttempts: 5,
			JitterSeed:  99,
			Sleep:       func(d time.Duration) { ds = append(ds, d) },
		}
		_ = p.Do("fed.query.hive", func() error { return Transient(errors.New("x")) })
		return ds
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different jitter at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker("hive", 2, 100*time.Millisecond, clock)
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker must allow: %v", err)
	}
	b.Failure(errors.New("f1"))
	if b.State() != BreakerClosed {
		t.Fatalf("one failure below threshold must not open")
	}
	b.Failure(errors.New("f2"))
	if b.State() != BreakerOpen {
		t.Fatalf("threshold failures must open, state=%v", b.State())
	}
	err := b.Allow()
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker must reject with ErrCircuitOpen, got %v", err)
	}
	// The call admitted at the top succeeds only now: it is not the probe.
	b.Success()
	if b.State() != BreakerOpen {
		t.Fatalf("a success admitted before the trip must not close the circuit, state=%v", b.State())
	}
	// Cooldown elapses: exactly one probe admitted.
	now = now.Add(100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe must be admitted: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second caller during probe must be rejected, got %v", err)
	}
	// Failed probe re-opens.
	b.Failure(errors.New("probe failed"))
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe must reopen, state=%v", b.State())
	}
	// Next cooldown, successful probe closes.
	now = now.Add(100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe must be admitted: %v", err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe must close, state=%v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed after recovery must allow: %v", err)
	}
	st := b.Snapshot()
	if st.Opens != 2 || st.TotalFails != 3 || st.Name != "hive" {
		t.Fatalf("snapshot wrong: %+v", st)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker("psa", 3, time.Second, func() time.Time { return time.Unix(0, 0) })
	b.Failure(errors.New("f"))
	b.Failure(errors.New("f"))
	b.Success()
	b.Failure(errors.New("f"))
	b.Failure(errors.New("f"))
	if b.State() != BreakerClosed {
		t.Fatalf("success must reset the consecutive-failure streak")
	}
	b.NoteRetry()
	b.NoteRetry()
	if st := b.Snapshot(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if BreakerClosed.String() != "CLOSED" || BreakerOpen.String() != "OPEN" || BreakerHalfOpen.String() != "HALF-OPEN" {
		t.Fatalf("state strings wrong")
	}
}

func TestRetryDoCtxCancelledBeforeAttempt(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err := p.DoCtx(ctx, "op", func() error { n++; return nil })
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("err=%v attempts=%d, want Canceled and 0 attempts", err, n)
	}
}

func TestRetryDoCtxAbortsBetweenAttempts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		// Cancel while "sleeping": the next attempt must never run.
		Sleep: func(time.Duration) { cancel() },
	}
	n := 0
	err := p.DoCtx(ctx, "op", func() error { n++; return Transient(errors.New("flaky")) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 1 {
		t.Fatalf("attempts = %d, want 1 (cancelled during backoff)", n)
	}
}

func TestRetryDoCtxAbortsTimerBackoff(t *testing.T) {
	// No injected Sleep: the real timer path must select on ctx.Done.
	ctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	done := make(chan error, 1)
	go func() {
		done <- p.DoCtx(ctx, "op", func() error { return Transient(errors.New("flaky")) })
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DoCtx still sleeping an hour-long backoff after cancel")
	}
}
