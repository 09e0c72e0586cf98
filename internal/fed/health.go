package fed

import (
	"sort"
	"sync"
	"time"

	"hana/internal/faults"
)

// Health tracks per-remote-source circuit breakers. The engine consults it
// before shipping work to a source and reports it through the
// M_REMOTE_SOURCE_HEALTH monitoring view. Breakers are created lazily on
// first use, one per remote-source name.
type Health struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	// hana:guardedby mu
	now func() time.Time
	// hana:guardedby mu
	breakers map[string]*faults.Breaker
	// hana:guardedby mu
	observer func(faults.BreakerStats)
}

// NewHealth creates a breaker registry. threshold and cooldown apply to
// every breaker it creates; zero values take the faults package defaults.
func NewHealth(threshold int, cooldown time.Duration) *Health {
	return &Health{
		threshold: threshold,
		cooldown:  cooldown,
		breakers:  map[string]*faults.Breaker{},
	}
}

// SetClock replaces the clock used by all current and future breakers
// (deterministic tests).
func (h *Health) SetClock(now func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.now = now
	for _, b := range h.breakers {
		b.SetClock(now)
	}
}

// SetObserver installs a callback forwarded to every current and future
// breaker: it fires with a fresh stats snapshot on each state-changing
// breaker event, outside the breaker's lock. The engine uses it to mirror
// breaker state into the observability registry.
func (h *Health) SetObserver(fn func(faults.BreakerStats)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observer = fn
	for _, b := range h.breakers {
		b.SetObserver(fn)
	}
}

// Breaker returns the breaker for a remote source, creating it on first
// use.
func (h *Health) Breaker(source string) *faults.Breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.breakers[source]
	if !ok {
		b = faults.NewBreaker(source, h.threshold, h.cooldown, h.now)
		if h.observer != nil {
			b.SetObserver(h.observer)
		}
		h.breakers[source] = b
	}
	return b
}

// Snapshot returns breaker stats for every known source, sorted by name.
func (h *Health) Snapshot() []faults.BreakerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]faults.BreakerStats, 0, len(h.breakers))
	for _, b := range h.breakers {
		out = append(out, b.Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
