package resilience

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, openFor time.Duration, probes int) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := NewBreaker(BreakerConfig{
		Name: "src", FailureThreshold: threshold, OpenTimeout: openFor,
		HalfOpenSuccesses: probes, Now: clk.now,
	})
	return b, clk
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute, 1)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		b.Record(boom)
		if got := b.State(); got != StateClosed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
	}
	b.Record(boom)
	if got := b.State(); got != StateOpen {
		t.Fatalf("after threshold state = %v, want open", got)
	}
	var openErr *OpenError
	if err := b.Allow(); !errors.As(err, &openErr) {
		t.Fatalf("Allow while open = %v, want *OpenError", err)
	} else if openErr.RetryAfter != time.Minute {
		t.Fatalf("RetryAfter = %v, want 1m", openErr.RetryAfter)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute, 1)
	boom := errors.New("boom")
	b.Record(boom)
	b.Record(boom)
	b.Record(nil) // streak broken
	b.Record(boom)
	b.Record(boom)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state = %v, want closed (failures were not consecutive)", got)
	}
}

func TestBreakerHalfOpenProbeClosesOrReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute, 2)
	b.Record(errors.New("boom"))
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	clk.advance(59 * time.Second)
	if err := b.Allow(); err == nil {
		t.Fatal("Allow before open timeout should be rejected")
	}
	clk.advance(time.Second)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after timeout = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	// A probe failure reopens immediately.
	b.Record(errors.New("still down"))
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// Wait out the timeout again; two successes are needed to close.
	clk.advance(time.Minute)
	b.Record(nil)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1/2 probe successes = %v, want half-open", got)
	}
	b.Record(nil)
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2/2 probe successes = %v, want closed", got)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{StateClosed: "closed", StateOpen: "open", StateHalfOpen: "half-open"} {
		if s.String() != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
