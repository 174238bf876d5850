package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// trustEngine builds a single-source engine tuned so two invariant
// violations cross the threshold.
func trustEngine(t *testing.T, source string) *trust.Engine {
	t.Helper()
	e, err := trust.NewEngine(trust.Config{Threshold: 0.5, Decay: 0.7},
		trust.SourceConfig{Name: source, Required: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// corruptScene returns the legal scene with a physically impossible aqi —
// guaranteed to fire the aqi_range invariant on every observation.
func corruptScene(t *testing.T, at time.Time) sensor.Snapshot {
	t.Helper()
	s := legalCtx(t, dataset.ModelWindow).Clone()
	s.At = at
	s.Set(sensor.FeatAirQuality, sensor.Number(-1))
	return s
}

// TestNewEpochCollectorTrustValidation: the engine must declare every
// store source.
func TestNewEpochCollectorTrustValidation(t *testing.T) {
	clk := newEpochClock()
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now}, epoch.SourceConfig{Name: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	eng := trustEngine(t, "other")
	if _, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now, Trust: eng}, st); err == nil {
		t.Fatal("engine missing the store source accepted")
	}
}

// TestAuthorizeEpochFailsClosedOnLowTrust is the tentpole's end-to-end
// gate on the push path: a spoofed source keeps pushing perfectly fresh
// deltas, the trust engine collapses its score via the store's Observe
// hook, and sensitive instructions fail closed with the interned
// low-trust reason while non-sensitive ones still judge.
func TestAuthorizeEpochFailsClosedOnLowTrust(t *testing.T) {
	clk := newEpochClock()
	eng := trustEngine(t, "sim")
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now, Observe: func(src string, d sensor.Snapshot, at time.Time) {
		eng.Observe(src, d, at)
	}}, epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now, Trust: eng}, st)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Detector: detectorForTest(t), Collector: c, Memory: memoryForTest(t)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	winOpen := buildInstr(t, "window.open", "window-1")

	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	dec, err := f.Authorize(ctx, winOpen)
	if err != nil || !dec.Allowed {
		t.Fatalf("clean push: dec=%+v err=%v", dec, err)
	}

	// The attacker establishes the spoofed feed: fresh, well-typed, and
	// physically impossible. Two violations cross the threshold.
	for i := 0; i < 2; i++ {
		clk.Advance(time.Second)
		if err := st.Push("sim", corruptScene(t, clk.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Trusted("sim") {
		t.Fatal("spoofed feed still trusted")
	}

	dec, err = f.Authorize(ctx, winOpen)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("sensitive instruction allowed on low-trust required source")
	}
	if dec.Reason != ReasonLowTrust {
		t.Fatalf("reason = %q, want the interned low-trust reason", dec.Reason)
	}

	// Non-sensitive instructions still judge, with the source flagged in
	// provenance.
	tvOn := buildInstr(t, "tv.on", "tv-1")
	dec, err = f.Authorize(ctx, tvOn)
	if err != nil || !dec.Allowed {
		t.Fatalf("non-sensitive under low trust: dec=%+v err=%v", dec, err)
	}
	_, prov, err := c.CollectDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov) != 1 || !prov[0].LowTrust || prov[0].State != SourceFresh {
		t.Fatalf("provenance = %+v, want fresh+low-trust", prov)
	}
	if prov[0].Trust >= 0.5 {
		t.Fatalf("provenance trust = %v, want below threshold", prov[0].Trust)
	}
	if !prov.Degraded() {
		t.Fatal("low-trust provenance not reported degraded")
	}
	if lt := prov.LowTrustRequired(); len(lt) != 1 || lt[0] != "sim" {
		t.Fatalf("LowTrustRequired = %v", lt)
	}
}

// mutableCollector serves whatever snapshot the test last stored.
type mutableCollector struct {
	mu   sync.Mutex
	snap sensor.Snapshot
}

func (m *mutableCollector) set(s sensor.Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.snap = s
}

func (m *mutableCollector) Collect(context.Context) (sensor.Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap, nil
}

// TestMultiCollectorTrustProvenance: the poll path reports every collect
// into the engine and stamps provenance with scores; a collapsed source
// fails sensitive instructions closed through the same framework rule.
func TestMultiCollectorTrustProvenance(t *testing.T) {
	eng := trustEngine(t, "gw")
	clk := newEpochClock()
	src := &mutableCollector{}
	clean := legalCtx(t, dataset.ModelWindow).Clone()
	clean.At = clk.Now()
	src.set(clean)
	mc, err := NewMultiCollector(MultiConfig{Now: clk.Now, Trust: eng},
		Source{Name: "gw", Collector: src, Required: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, prov, err := mc.CollectDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if prov[0].LowTrust || prov[0].Trust != 1 {
		t.Fatalf("clean collect provenance = %+v", prov[0])
	}
	for i := 0; i < 2; i++ {
		clk.Advance(time.Second)
		src.set(corruptScene(t, clk.Now()))
		if _, _, err := mc.CollectDetailed(ctx); err != nil {
			t.Fatal(err)
		}
	}
	_, prov, err = mc.CollectDetailed(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !prov[0].LowTrust || prov[0].State != SourceFresh {
		t.Fatalf("spoofed collect provenance = %+v, want fresh+low-trust", prov[0])
	}

	f, err := New(Config{Detector: detectorForTest(t), Collector: mc, Memory: memoryForTest(t)})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Authorize(ctx, buildInstr(t, "window.open", "window-1"))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed || dec.Reason != ReasonLowTrust {
		t.Fatalf("sensitive on spoofed poll source: %+v", dec)
	}
}

// TestNewMultiCollectorTrustValidation: the engine must declare every
// polled source.
func TestNewMultiCollectorTrustValidation(t *testing.T) {
	eng := trustEngine(t, "other")
	_, err := NewMultiCollector(MultiConfig{Trust: eng},
		Source{Name: "gw", Collector: &mutableCollector{}, Required: true})
	if err == nil {
		t.Fatal("engine missing the polled source accepted")
	}
}

// TestAuthorizeEpochTrustSteadyStateAllocs extends the epoch alloc gate
// with the trust check armed on the hot path: still zero allocations.
func TestAuthorizeEpochTrustSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := obs.NewRegistry()
	clk := newEpochClock()
	eng, err := trust.NewEngine(trust.Config{Metrics: reg}, trust.SourceConfig{Name: "sim", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now, Metrics: reg, Observe: func(src string, d sensor.Snapshot, at time.Time) {
		eng.Observe(src, d, at)
	}},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now, Trust: eng}, st)
	if err != nil {
		t.Fatal(err)
	}
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	f, err := New(Config{Detector: detectorForTest(t), Collector: c, Memory: memoryForTest(t), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "window-1")
	ctx := context.Background()
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
		t.Errorf("epoch Authorize with trust check allocates %.1f objects/op, want 0", allocs)
	}
}
