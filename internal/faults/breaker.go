package faults

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

// Breaker states: Closed admits calls, Open rejects them, HalfOpen admits
// exactly one probe after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state in M_ views and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "CLOSED"
	case BreakerOpen:
		return "OPEN"
	case BreakerHalfOpen:
		return "HALF-OPEN"
	}
	return "?"
}

// Breaker is a per-remote-source circuit breaker. Threshold consecutive
// failures open it; after Cooldown a single half-open probe is admitted,
// and its outcome closes or re-opens the circuit.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu sync.Mutex
	// hana:guardedby mu
	state BreakerState
	// hana:guardedby mu
	consecFails int
	// hana:guardedby mu
	probing bool
	// hana:guardedby mu
	openedAt time.Time
	// hana:guardedby mu
	totalFails int64
	// hana:guardedby mu
	opens int64
	// hana:guardedby mu
	retries int64
	// hana:guardedby mu
	lastErr string
	// hana:guardedby mu
	observer func(BreakerStats)
}

// NewBreaker creates a breaker. threshold<=0 defaults to 3, cooldown<=0 to
// 250ms; now==nil uses time.Now.
func NewBreaker(name string, threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 250 * time.Millisecond
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{name: name, threshold: threshold, cooldown: cooldown, now: now}
}

// SetClock replaces the breaker's clock (deterministic tests).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// SetObserver installs a callback invoked with a fresh stats snapshot after
// every state-changing event (success, failure, retry, half-open probe
// admission). The observer runs outside the breaker's lock, so it may take
// its own locks — the metrics registry publishes breaker state through it.
func (b *Breaker) SetObserver(fn func(BreakerStats)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.observer = fn
}

// notifyLocked captures the observer and a snapshot while the lock is held;
// the caller must invoke the returned function after releasing b.mu.
func (b *Breaker) notifyLocked() func() {
	if b.observer == nil {
		return func() {}
	}
	fn, st := b.observer, b.snapshotLocked()
	return func() { fn(st) }
}

// Allow reports whether a call may proceed. When the circuit is open and
// the cooldown has elapsed it transitions to half-open and admits exactly
// one probe; concurrent callers keep getting the open error until the
// probe resolves via Success or Failure.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.mu.Unlock()
			return fmt.Errorf("%w: %s probe in flight", ErrCircuitOpen, b.name)
		}
		b.probing = true
		b.mu.Unlock()
		return nil
	default: // BreakerOpen
		//lint:ignore locksafe the clock is set under b.mu by SetClock, and every clock is a plain time source that takes no lock
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			b.probing = true
			notify := b.notifyLocked()
			b.mu.Unlock()
			notify()
			return nil
		}
		b.mu.Unlock()
		return fmt.Errorf("%w: %s cooling down", ErrCircuitOpen, b.name)
	}
}

// Success records a successful call: the circuit closes and failure
// bookkeeping resets. A call admitted before the circuit tripped that
// succeeds after it did is not the probe, and leaves the circuit open.
func (b *Breaker) Success() {
	b.mu.Lock()
	if b.state == BreakerOpen {
		b.mu.Unlock()
		return
	}
	b.state = BreakerClosed
	b.consecFails = 0
	b.probing = false
	b.lastErr = ""
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// Failure records a failed call. A failed half-open probe re-opens the
// circuit immediately; in the closed state the circuit opens once the
// consecutive-failure threshold is reached.
func (b *Breaker) Failure(err error) {
	b.mu.Lock()
	b.totalFails++
	b.consecFails++
	if err != nil {
		b.lastErr = err.Error()
	}
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		if b.consecFails >= b.threshold {
			b.open()
		}
	}
	b.probing = false
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.opens++
}

// NoteRetry counts a retry attempt against this breaker's source for
// observability (M_REMOTE_SOURCE_HEALTH).
func (b *Breaker) NoteRetry() {
	b.mu.Lock()
	b.retries++
	notify := b.notifyLocked()
	b.mu.Unlock()
	notify()
}

// BreakerStats is a point-in-time snapshot for monitoring views.
type BreakerStats struct {
	Name        string
	State       BreakerState
	ConsecFails int
	TotalFails  int64
	Opens       int64
	Retries     int64
	LastError   string
}

// Snapshot copies the breaker's counters.
func (b *Breaker) Snapshot() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.snapshotLocked()
}

func (b *Breaker) snapshotLocked() BreakerStats {
	return BreakerStats{
		Name:        b.name,
		State:       b.state,
		ConsecFails: b.consecFails,
		TotalFails:  b.totalFails,
		Opens:       b.opens,
		Retries:     b.retries,
		LastError:   b.lastErr,
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
