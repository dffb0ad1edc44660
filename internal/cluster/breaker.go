package cluster

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes requests through (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen allows a single probe after the cooldown.
	BreakerHalfOpen
	// BreakerOpen fails fast without contacting the peer.
	BreakerOpen
)

// String returns the conventional lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// Defaults for the per-peer breakers.
const (
	// DefaultBreakerThreshold is how many consecutive failures open a
	// breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker fails fast
	// before allowing a half-open probe.
	DefaultBreakerCooldown = 2 * time.Second
)

// Breaker is a per-peer circuit breaker: consecutive failures trip it
// open, open fails fast for a cooldown, then a single half-open probe
// decides between closing and re-opening. Safe for concurrent use.
//
// Peer fill degrades gracefully without one — a dead owner just costs a
// timeout before the local-search fallback — but a breaker turns that
// per-request timeout into a cheap in-memory check while the owner is
// down, which is the difference between a slow fleet and a healthy one
// during a rolling restart.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker returns a closed breaker tripping after threshold
// consecutive failures (DefaultBreakerThreshold when <= 0) and cooling
// down for cooldown (DefaultBreakerCooldown when <= 0).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In the open state it
// transitions to half-open once the cooldown has elapsed and admits
// exactly one probe; concurrent callers fail fast until that probe
// reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful request, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Release ends an admitted request whose outcome says nothing about the
// peer's health (the peer answered, but refused the request itself). The
// state and failure count are left alone; a half-open probe slot is
// handed back so the next request probes instead.
func (b *Breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed request: the half-open probe failing (or the
// threshold-th consecutive closed-state failure) opens the breaker and
// restarts the cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	}
	b.mu.Unlock()
}

// State returns the breaker's current position (open flips to half-open
// only on the next Allow, so a cooled-down breaker still reads open
// until probed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
