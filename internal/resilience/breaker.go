package resilience

import (
	"fmt"
	"sync"
	"time"
)

// State is a circuit breaker state.
type State int

// The three breaker states.
const (
	StateClosed State = iota
	StateOpen
	StateHalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// OpenError is returned by Breaker.Allow while the breaker is open.
// RetryAfter is how long until the breaker will admit a half-open probe —
// the serving layer translates it into an HTTP Retry-After header.
type OpenError struct {
	Name       string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OpenError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("resilience: breaker %q open (retry after %v)", e.Name, e.RetryAfter)
	}
	return fmt.Sprintf("resilience: breaker open (retry after %v)", e.RetryAfter)
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Name labels OpenError and health reports.
	Name string
	// FailureThreshold is how many consecutive failures trip the breaker
	// (default 5).
	FailureThreshold int
	// OpenTimeout is how long a tripped breaker stays open before admitting
	// a half-open probe (default 30s).
	OpenTimeout time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close the
	// breaker again (default 1).
	HalfOpenSuccesses int
	// Now is the breaker's clock; defaults to time.Now. Injectable so fault
	// campaigns replay deterministically.
	Now func() time.Time
	// OnStateChange, when non-nil, is called on every state transition
	// (closed→open, open→half-open, half-open→open, half-open→closed) —
	// the observability layer counts transitions through it. It runs with
	// the breaker's lock held: it must be fast and must not call back into
	// the breaker.
	OnStateChange func(from, to State)
}

// Breaker is a per-source circuit breaker: consecutive failures trip it
// open, open calls are rejected without touching the source, and after
// OpenTimeout a limited number of half-open probes decide whether to close
// it again. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     State
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	openedAt  time.Time
}

// NewBreaker builds a breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = 30 * time.Second
	}
	if cfg.HalfOpenSuccesses <= 0 {
		cfg.HalfOpenSuccesses = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// setStateLocked moves the state machine and fires the transition hook.
// Callers hold b.mu.
func (b *Breaker) setStateLocked(to State) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(from, to)
	}
}

// state transitions open→half-open once the open timeout has elapsed.
// Callers hold b.mu.
func (b *Breaker) resolveLocked() State {
	if b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.setStateLocked(StateHalfOpen)
		b.successes = 0
	}
	return b.state
}

// State returns the current state, resolving an elapsed open timeout into
// half-open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.resolveLocked()
}

// Allow reports whether a call may proceed. While open it returns an
// *OpenError carrying the remaining wait; in half-open it admits probes.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.resolveLocked() == StateOpen {
		return &OpenError{Name: b.cfg.Name, RetryAfter: b.cfg.OpenTimeout - b.cfg.Now().Sub(b.openedAt)}
	}
	return nil
}

// Record feeds one call outcome into the state machine. A nil err is a
// success; in half-open, HalfOpenSuccesses consecutive successes close the
// breaker and any failure reopens it.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.resolveLocked() {
	case StateClosed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.setStateLocked(StateOpen)
			b.openedAt = b.cfg.Now()
		}
	case StateHalfOpen:
		if err != nil {
			b.setStateLocked(StateOpen)
			b.openedAt = b.cfg.Now()
			b.failures = b.cfg.FailureThreshold
			return
		}
		b.successes++
		if b.successes >= b.cfg.HalfOpenSuccesses {
			b.setStateLocked(StateClosed)
			b.failures = 0
		}
	case StateOpen:
		// A straggler finishing after the trip; open state is driven by the
		// clock, not by late results.
	}
}
