package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/obs"
	"iotsid/internal/resilience"
	"iotsid/internal/sensor"
)

// fakeDetailed is a DetailedCollector with scripted provenance, for driving
// the fail-closed path without a network.
type fakeDetailed struct {
	snap sensor.Snapshot
	prov Provenance
}

func (f *fakeDetailed) Collect(ctx context.Context) (sensor.Snapshot, error) { return f.snap, nil }
func (f *fakeDetailed) CollectDetailed(ctx context.Context) (sensor.Snapshot, Provenance, error) {
	return f.snap, f.prov, nil
}

// instrumentedFramework builds a framework over a fixed snapshot with a
// fresh registry.
func instrumentedFramework(t *testing.T, snap sensor.Snapshot) (*Framework, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return snap, nil }),
		Memory:    memoryForTest(t),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, reg
}

// counterValue scrapes one rendered series value out of the registry — the
// tests read through the exposition so they also cover the encoder path.
func expositionContains(t *testing.T, reg *obs.Registry, line string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(line)) {
		t.Fatalf("exposition missing %q:\n%s", line, buf.String())
	}
}

// TestAuthorizeSteadyStateAllocs is the acceptance gate: the *instrumented*
// Authorize path — constant context, interned reasons, pooled features,
// compiled tree, decision ring, metric increments — allocates nothing in
// steady state.
func TestAuthorizeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	snap := legalCtx(t, dataset.ModelWindow)
	reg := obs.NewRegistry()
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return snap, nil }),
		Memory:    memoryForTest(t),
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "window-1")
	ctx := context.Background()
	// Warm: buffer pool, reason interning table.
	for i := 0; i < 3; i++ {
		if _, err := f.Authorize(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec, err := f.Authorize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatal("expected allow on a legal scene")
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented Authorize steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAuthorizeDecisionCounters: allow, reject and fail-closed each land in
// their own pre-registered series, and the non-sensitive path counts as a
// non-sensitive allow.
func TestAuthorizeDecisionCounters(t *testing.T) {
	ctx := context.Background()
	legal := legalCtx(t, dataset.ModelWindow)
	f, reg := instrumentedFramework(t, legal)
	winOpen := buildInstr(t, "window.open", "window-1")
	for i := 0; i < 3; i++ {
		if _, err := f.Authorize(ctx, winOpen); err != nil {
			t.Fatal(err)
		}
	}
	// Rejections: same instruction against an attack scene.
	attack := attackCtx(t, dataset.ModelWindow)
	fr, regR := instrumentedFramework(t, attack)
	rejected := 0
	for i := 0; i < 4; i++ {
		dec, err := fr.Authorize(ctx, winOpen)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			rejected++
		}
	}
	if rejected != 4 {
		t.Fatalf("attack scene rejected %d/4", rejected)
	}
	expositionContains(t, reg, `iotsid_authz_decisions_total{outcome="allow",sensitive="true"} 3`)
	expositionContains(t, regR, `iotsid_authz_decisions_total{outcome="reject",sensitive="true"} 4`)

	// Fail-closed: a missing required source on a sensitive instruction.
	prov := Provenance{{Name: "gw", Required: true, State: SourceMissing}}
	reg2 := obs.NewRegistry()
	f2, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: &fakeDetailed{snap: legal, prov: prov},
		Memory:    memoryForTest(t),
		Metrics:   reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f2.Authorize(ctx, winOpen)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("fail-closed decision must reject")
	}
	expositionContains(t, reg2, `iotsid_authz_decisions_total{outcome="fail_closed",sensitive="true"} 1`)
	// A non-sensitive instruction still judges on the degraded context.
	status := buildInstr(t, "tv.on", "tv-1")
	if _, err := f2.Authorize(ctx, status); err != nil {
		t.Fatal(err)
	}
	expositionContains(t, reg2, `iotsid_authz_decisions_total{outcome="allow",sensitive="false"} 1`)
}

// TestAuthorizeLatencyHistogramDeterministic injects a fixed-step clock:
// every Authorize measures exactly one step, so the histogram's buckets,
// count and sum are bit-reproducible.
func TestAuthorizeLatencyHistogramDeterministic(t *testing.T) {
	const step = 2 * time.Millisecond
	now := time.Unix(1700000000, 0)
	clock := func() time.Time {
		now = now.Add(step)
		return now
	}
	snap := legalCtx(t, dataset.ModelWindow)
	reg := obs.NewRegistry()
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return snap, nil }),
		Memory:    memoryForTest(t),
		Metrics:   reg,
		Now:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "window-1")
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := f.Authorize(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	var want float64
	for i := 0; i < n; i++ {
		want += step.Seconds()
	}
	// 2ms lands in the le=0.0025 bucket; rendered cumulatively.
	expositionContains(t, reg, `iotsid_authz_latency_seconds_bucket{le="0.0025"} `+fmt.Sprint(n))
	expositionContains(t, reg, `iotsid_authz_latency_seconds_count `+fmt.Sprint(n))
	expositionContains(t, reg, fmt.Sprintf("iotsid_authz_latency_seconds_sum %v", want))
	// A second framework over the same fake clock reproduces the state
	// byte for byte.
	now = time.Unix(1700000000, 0)
	reg2 := obs.NewRegistry()
	f2, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return snap, nil }),
		Memory:    memoryForTest(t),
		Metrics:   reg2,
		Now:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := f2.Authorize(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	var b1, b2 bytes.Buffer
	if err := reg.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("replayed run diverged:\n%s\nvs\n%s", b1.String(), b2.String())
	}
}

// TestDecisionLogEvictionCounter is the drop-visibility fix: the ring's
// eviction counter must equal exactly (appends - retained), the number of
// entries the bounded ring silently overwrote.
func TestDecisionLogEvictionCounter(t *testing.T) {
	legal := legalCtx(t, dataset.ModelWindow)
	reg := obs.NewRegistry()
	f, err := New(Config{
		Detector:    detectorForTest(t),
		Collector:   CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return legal, nil }),
		Memory:      memoryForTest(t),
		Metrics:     reg,
		LogCapacity: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		in := buildInstr(t, "window.open", fmt.Sprintf("window-%d", i%7))
		f.Judge(in, legal)
	}
	retained := len(f.Log())
	appends := reg.NewCounter(metricLogAppends, "Entries appended to the authorization decision log.")
	evictions := reg.NewCounter(metricLogEvictions, "Oldest entries overwritten (dropped) by the decision log's bounded ring.")
	if appends.Value() != n {
		t.Fatalf("appends counter %d, want %d", appends.Value(), n)
	}
	if got, want := evictions.Value(), uint64(n-retained); got != want {
		t.Fatalf("eviction counter %d, want %d (appends %d - retained %d)", got, want, n, retained)
	}
	if evictions.Value() == 0 {
		t.Fatal("test expected the ring to overflow; raise n or shrink capacity")
	}
}

// TestMultiCollectorMetrics: provenance counters track fresh/stale/missing
// per source, and retry attempts are counted through the policy hook.
func TestMultiCollectorMetrics(t *testing.T) {
	var auxFail bool
	aux := CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) {
		if auxFail {
			return sensor.Snapshot{}, errors.New("aux down")
		}
		snap := sensor.NewSnapshot(time.Unix(10, 0))
		snap.Set(sensor.FeatTempIndoor, sensor.Number(21))
		return snap, nil
	})
	sim := CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) {
		snap := sensor.NewSnapshot(time.Unix(11, 0))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		return snap, nil
	})
	reg := obs.NewRegistry()
	now := time.Unix(2000, 0)
	noSleep := func(ctx context.Context, d time.Duration) error { return nil }
	m, err := NewMultiCollector(
		MultiConfig{Metrics: reg, Now: func() time.Time { return now }},
		Source{
			Name: "aux", Collector: aux, Staleness: time.Minute,
			Retry: &resilience.Policy{MaxAttempts: 3, Sleep: noSleep},
		},
		Source{Name: "sim", Collector: sim, Required: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Round 1: both fresh, no retries.
	if _, _, err := m.CollectDetailed(ctx); err != nil {
		t.Fatal(err)
	}
	// Round 2: aux fails (3 attempts → 2 retries), serves stale.
	auxFail = true
	now = now.Add(10 * time.Second)
	if _, prov, err := m.CollectDetailed(ctx); err != nil || prov[0].State != SourceStale {
		t.Fatalf("round 2: prov %+v err %v", prov, err)
	}
	// Round 3: aux fails beyond the budget → missing.
	now = now.Add(10 * time.Minute)
	if _, prov, err := m.CollectDetailed(ctx); err != nil || prov[0].State != SourceMissing {
		t.Fatalf("round 3: prov %+v err %v", prov, err)
	}
	expositionContains(t, reg, `iotsid_collector_source_collects_total{source="aux",state="fresh"} 1`)
	expositionContains(t, reg, `iotsid_collector_source_collects_total{source="aux",state="stale"} 1`)
	expositionContains(t, reg, `iotsid_collector_source_collects_total{source="aux",state="missing"} 1`)
	expositionContains(t, reg, `iotsid_collector_source_collects_total{source="sim",state="fresh"} 3`)
	expositionContains(t, reg, `iotsid_collector_retry_attempts_total{source="aux"} 4`)
}

// TestBreakerTransitionHook: the counter helper sees every transition of
// the breaker state machine.
func TestBreakerTransitionHook(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(0, 0)
	b := resilience.NewBreaker(resilience.BreakerConfig{
		Name: "gw", FailureThreshold: 2, OpenTimeout: time.Second, HalfOpenSuccesses: 1,
		Now:           func() time.Time { return now },
		OnStateChange: BreakerTransitionHook(reg, "gw"),
	})
	fail := errors.New("boom")
	b.Record(fail)
	b.Record(fail) // trips: closed → open
	if b.State() != resilience.StateOpen {
		t.Fatal("breaker should be open")
	}
	now = now.Add(2 * time.Second)
	if b.State() != resilience.StateHalfOpen { // open → half-open
		t.Fatal("breaker should be half-open")
	}
	b.Record(nil) // half-open → closed
	if b.State() != resilience.StateClosed {
		t.Fatal("breaker should be closed")
	}
	expositionContains(t, reg, `iotsid_breaker_transitions_total{name="gw",to="open"} 1`)
	expositionContains(t, reg, `iotsid_breaker_transitions_total{name="gw",to="half_open"} 1`)
	expositionContains(t, reg, `iotsid_breaker_transitions_total{name="gw",to="closed"} 1`)
}
