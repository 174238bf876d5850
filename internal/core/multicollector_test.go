package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
)

// flakyCollector serves a settable snapshot or error and counts calls.
type flakyCollector struct {
	mu    sync.Mutex
	snap  sensor.Snapshot
	err   error
	calls int
}

func (c *flakyCollector) Collect(ctx context.Context) (sensor.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.err != nil {
		return sensor.Snapshot{}, c.err
	}
	return c.snap, nil
}

func (c *flakyCollector) set(snap sensor.Snapshot, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snap, c.err = snap, err
}

func (c *flakyCollector) callCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

func snapAt(sec int64, feat sensor.Feature, v sensor.Value) sensor.Snapshot {
	s := sensor.NewSnapshot(time.Unix(sec, 0))
	s.Set(feat, v)
	return s
}

// required names each collector a required source, src0..srcN: the
// all-or-nothing MultiCollector shape.
func required(collectors ...Collector) []Source {
	out := make([]Source, len(collectors))
	for i, c := range collectors {
		out[i] = Source{Name: fmt.Sprintf("src%d", i), Collector: c, Required: true}
	}
	return out
}

// TestMultiCollectorMergedTimestampMaxOfSources is the regression for the
// old MultiCollector stamping the merged snapshot with time.Time{}: the
// merged timestamp must be the max of the source timestamps, wherever the
// newest source sits in declaration order.
func TestMultiCollectorMergedTimestampMaxOfSources(t *testing.T) {
	cases := [][2]int64{{1, 2}, {5, 2}}
	for _, c := range cases {
		srcs := required(
			staticCollector{snap: snapAt(c[0], sensor.FeatSmoke, sensor.Bool(false))},
			staticCollector{snap: snapAt(c[1], sensor.FeatMotion, sensor.Bool(true))},
		)
		m, err := NewMultiCollector(MultiConfig{}, srcs...)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := m.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want := c[0]
		if c[1] > want {
			want = c[1]
		}
		if !snap.At.Equal(time.Unix(want, 0)) {
			t.Errorf("sources at %v: merged At = %v, want %v", c, snap.At, time.Unix(want, 0))
		}
		if snap.At.IsZero() {
			t.Error("merged snapshot stamped with the zero time")
		}
	}
}

// TestMultiCollectorOptionalStaleFallback drives the degraded-mode ladder
// for an optional source: fresh while it answers, stale (with age) while
// its last-good snapshot is within the staleness budget, missing beyond it
// — and the strict Collect path stays available throughout because the
// source is optional.
func TestMultiCollectorOptionalStaleFallback(t *testing.T) {
	now := time.Unix(10_000, 0)
	health := resilience.NewRegistry()
	main := &flakyCollector{snap: snapAt(1, sensor.FeatSmoke, sensor.Bool(false))}
	aux := &flakyCollector{snap: snapAt(2, sensor.FeatMotion, sensor.Bool(true))}
	m, err := NewMultiCollector(MultiConfig{Now: func() time.Time { return now }, Health: health},
		Source{Name: "main", Required: true, Collector: main},
		Source{Name: "aux", Staleness: 30 * time.Second, Collector: aux},
	)
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: both fresh.
	snap, prov, err := m.CollectDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prov.Degraded() {
		t.Fatalf("healthy round reported degraded: %+v", prov)
	}
	if !snap.Bool(sensor.FeatMotion) {
		t.Fatal("aux feature lost")
	}

	// Round 2: aux dies 10s later — served stale from the last-good copy.
	aux.set(sensor.Snapshot{}, errors.New("gateway down"))
	now = now.Add(10 * time.Second)
	snap, prov, err = m.CollectDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prov[1].State != SourceStale || prov[1].Age != 10*time.Second {
		t.Fatalf("aux status = %+v, want stale with age 10s", prov[1])
	}
	if prov[1].Err == "" {
		t.Error("stale status must carry the collect failure")
	}
	if !snap.Bool(sensor.FeatMotion) {
		t.Fatal("stale fallback lost the aux feature")
	}
	if !prov.Degraded() || len(prov.MissingRequired()) != 0 {
		t.Fatalf("stale optional source: degraded=%v missing=%v", prov.Degraded(), prov.MissingRequired())
	}
	// Strict path still serves: optional staleness is not an outage.
	if _, err := m.Collect(context.Background()); err != nil {
		t.Fatalf("strict Collect during bounded staleness: %v", err)
	}

	// Round 3: beyond the budget the source is missing and its feature gone.
	now = now.Add(40 * time.Second)
	snap, prov, err = m.CollectDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prov[1].State != SourceMissing {
		t.Fatalf("aux status = %+v, want missing past the budget", prov[1])
	}
	if _, ok := snap.Get(sensor.FeatMotion); ok {
		t.Fatal("expired stale data still served")
	}
	// Optional missing: the strict path still serves the required context.
	if _, err := m.Collect(context.Background()); err != nil {
		t.Fatalf("strict Collect with a missing optional source: %v", err)
	}

	// The health registry mirrors the ladder.
	for _, h := range health.Snapshot() {
		switch h.Name {
		case "main":
			if h.State != "fresh" || !h.Required {
				t.Errorf("main health = %+v", h)
			}
		case "aux":
			if h.State != "missing" || h.Required {
				t.Errorf("aux health = %+v", h)
			}
		}
	}
	if !health.Healthy() {
		t.Error("registry unhealthy although every required source is fresh")
	}

	// Recovery: aux answers again and is fresh immediately.
	aux.set(snapAt(3, sensor.FeatMotion, sensor.Bool(true)), nil)
	_, prov, err = m.CollectDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prov[1].State != SourceFresh {
		t.Fatalf("recovered aux = %+v", prov[1])
	}
}

// TestMultiCollectorRequiredMissing: a dead required source fails the
// strict Collect with the source named, while CollectDetailed still serves
// the partial context plus the provenance the framework needs to fail
// closed selectively.
func TestMultiCollectorRequiredMissing(t *testing.T) {
	health := resilience.NewRegistry()
	dead := &flakyCollector{err: errors.New("udp timeout")}
	alive := &flakyCollector{snap: snapAt(7, sensor.FeatMotion, sensor.Bool(true))}
	m, err := NewMultiCollector(MultiConfig{Health: health},
		Source{Name: "miio", Required: true, Collector: dead},
		Source{Name: "st", Collector: alive},
	)
	if err != nil {
		t.Fatal(err)
	}
	snap, prov, err := m.CollectDetailed(context.Background())
	if err != nil {
		t.Fatalf("detailed collect must serve the partial context: %v", err)
	}
	if got := prov.MissingRequired(); len(got) != 1 || got[0] != "miio" {
		t.Fatalf("MissingRequired = %v", got)
	}
	if !snap.Bool(sensor.FeatMotion) {
		t.Fatal("partial context lost the healthy source")
	}
	if _, err := m.Collect(context.Background()); err == nil || !strings.Contains(err.Error(), "miio") {
		t.Fatalf("strict Collect = %v, want the missing required source named", err)
	}
	if health.Healthy() {
		t.Error("registry healthy with a required source missing")
	}
}

// TestMultiCollectorAllSourcesFail: with no contributor at all there is no
// context to serve — even the detailed path errors.
func TestMultiCollectorAllSourcesFail(t *testing.T) {
	m, err := NewMultiCollector(MultiConfig{},
		Source{Name: "a", Required: true, Collector: &flakyCollector{err: errors.New("down")}},
		Source{Name: "b", Collector: &flakyCollector{err: errors.New("also down")}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.CollectDetailed(context.Background()); err == nil {
		t.Fatal("want error when every source fails")
	}
}

// TestMultiCollectorBreakerSkipsOpenSource: after the failure threshold the
// breaker opens, collects skip the dead source entirely, the strict error
// carries the *resilience.OpenError (for Retry-After at the serving layer),
// and an elapsed open timeout admits the recovery probe.
func TestMultiCollectorBreakerSkipsOpenSource(t *testing.T) {
	now := time.Unix(50_000, 0)
	clock := func() time.Time { return now }
	src := &flakyCollector{err: errors.New("gateway unreachable")}
	br := resilience.NewBreaker(resilience.BreakerConfig{
		Name: "miio", FailureThreshold: 2, OpenTimeout: time.Minute, Now: clock,
	})
	m, err := NewMultiCollector(MultiConfig{Now: clock},
		Source{Name: "miio", Required: true, Collector: src, Breaker: br},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := m.Collect(context.Background()); err == nil {
			t.Fatal("want failure")
		}
	}
	if br.State() != resilience.StateOpen {
		t.Fatalf("breaker = %v after threshold, want open", br.State())
	}
	// Open breaker: the source is not touched, and the error chain carries
	// the OpenError with its retry-after.
	before := src.callCount()
	_, err = m.Collect(context.Background())
	if err == nil {
		t.Fatal("want breaker-open failure")
	}
	var open *resilience.OpenError
	if !errors.As(err, &open) || open.Name != "miio" || open.RetryAfter <= 0 {
		t.Fatalf("err = %v, want *OpenError with retry-after", err)
	}
	if src.callCount() != before {
		t.Fatal("open breaker still hit the source")
	}

	// Past the open timeout a half-open probe runs; a success closes it.
	now = now.Add(2 * time.Minute)
	src.set(snapAt(9, sensor.FeatSmoke, sensor.Bool(false)), nil)
	if _, err := m.Collect(context.Background()); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if br.State() != resilience.StateClosed {
		t.Fatalf("breaker = %v after recovery, want closed", br.State())
	}
}

// TestMultiCollectorRetryRecoversTransient: a per-source retry policy turns
// a twice-transient failure into one successful collect.
func TestMultiCollectorRetryRecoversTransient(t *testing.T) {
	fails := 2
	var mu sync.Mutex
	calls := 0
	src := CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= fails {
			return sensor.Snapshot{}, fmt.Errorf("transient %d", calls)
		}
		return snapAt(3, sensor.FeatSmoke, sensor.Bool(false)), nil
	})
	retry := resilience.Policy{
		MaxAttempts: 3, Seed: 1,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	}
	m, err := NewMultiCollector(MultiConfig{},
		Source{Name: "miio", Required: true, Collector: src, Retry: &retry},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Collect(context.Background()); err != nil {
		t.Fatalf("retried collect: %v", err)
	}
	mu.Lock()
	got := calls
	mu.Unlock()
	if got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// TestMultiCollectorValidation covers the declaration checks.
func TestMultiCollectorValidation(t *testing.T) {
	good := Source{Name: "a", Collector: &flakyCollector{}}
	cases := [][]Source{
		{},
		{{Collector: &flakyCollector{}}},
		{{Name: "a"}},
		{good, {Name: "a", Collector: &flakyCollector{}}},
	}
	for i, srcs := range cases {
		if _, err := NewMultiCollector(MultiConfig{}, srcs...); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestFrameworkFailsClosedOnMissingRequiredSource: with the required vendor
// feed missing, a sensitive instruction is rejected outright (a logged
// decision, not an error) while a non-sensitive one still judges against
// the degraded context served by the optional source.
func TestFrameworkFailsClosedOnMissingRequiredSource(t *testing.T) {
	dead := &flakyCollector{err: errors.New("udp timeout")}
	alive := &flakyCollector{snap: legalCtx(t, dataset.ModelWindow)}
	m, err := NewMultiCollector(MultiConfig{},
		Source{Name: "miio", Required: true, Collector: dead},
		Source{Name: "st", Collector: alive},
	)
	if err != nil {
		t.Fatal(err)
	}
	f := frameworkForTest(t, m)

	dec, err := f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatalf("fail-closed must be a decision, not an error: %v", err)
	}
	if dec.Allowed || !dec.Sensitive {
		t.Fatalf("decision = %+v, want sensitive rejection", dec)
	}
	if !strings.Contains(dec.Reason, "fail closed") || !strings.Contains(dec.Explain(), "miio") {
		t.Errorf("reason = %q, explanation = %q", dec.Reason, dec.Explain())
	}
	if dec.Outcome != OutcomeFailClosed || dec.State != ContextMissing {
		t.Errorf("outcome %d, state %d: want fail closed on a missing source", dec.Outcome, dec.State)
	}
	// Non-sensitive instructions still serve on the degraded context.
	dec, err = f.Authorize(context.Background(), buildInstr(t, "window.get_state", "window-1"))
	if err != nil {
		t.Fatalf("non-sensitive on degraded context: %v", err)
	}
	if !dec.Allowed {
		t.Fatalf("non-sensitive rejected: %+v", dec)
	}
	// Both decisions are in the log.
	if log := f.Log(); len(log) != 2 || log[0].Decision.Allowed {
		t.Errorf("log = %+v", log)
	}

	// The healthy path clears: once the required source answers, the same
	// sensitive instruction is judged on its merits again.
	dead.set(legalCtx(t, dataset.ModelWindow), nil)
	dec, err = f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed {
		t.Fatalf("recovered legal context rejected: %+v", dec)
	}

	// With every source dead there is no context at all: that is an error.
	dead.set(sensor.Snapshot{}, errors.New("down"))
	alive.set(sensor.Snapshot{}, errors.New("down"))
	if _, err := f.Authorize(context.Background(), buildInstr(t, "window.open", "window-1")); err == nil {
		t.Fatal("want collect error with no context at all")
	}
}
