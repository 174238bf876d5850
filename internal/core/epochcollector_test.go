package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// epochClock is a manually advanced clock shared by a store and its
// collector, so push ages are exact.
type epochClock struct {
	mu  sync.Mutex
	now time.Time
}

func newEpochClock() *epochClock {
	return &epochClock{now: time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *epochClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *epochClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// epochFixture builds a store + collector pair on a shared test clock with
// one required source.
func epochFixture(t *testing.T, freshFor, staleness time.Duration) (*epoch.Store, *EpochCollector, *epochClock) {
	t.Helper()
	clk := newEpochClock()
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: freshFor, Staleness: staleness})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	return st, c, clk
}

func pushScene(t *testing.T, st *epoch.Store, source string, snap sensor.Snapshot, at time.Time) {
	t.Helper()
	d := snap.Clone()
	d.At = at
	if err := st.Push(source, d); err != nil {
		t.Fatal(err)
	}
}

func TestNewEpochCollectorValidation(t *testing.T) {
	if _, err := NewEpochCollector(EpochCollectorConfig{}, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestEpochCollectorSteadyState(t *testing.T) {
	st, c, clk := epochFixture(t, time.Minute, 0)
	legal := legalCtx(t, dataset.ModelWindow)
	pushScene(t, st, "sim", legal, clk.Now())
	snap, prov, err := c.CollectDetailed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prov.Degraded() {
		t.Fatalf("fresh push reported degraded: %+v", prov)
	}
	if snap.Len() != legal.Len() {
		t.Fatalf("snapshot values = %d, want %d", snap.Len(), legal.Len())
	}
	// Strict Collect also serves.
	if _, err := c.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.store.View().Epoch; got != 1 {
		t.Fatalf("collector epoch = %d, want 1", got)
	}
}

func TestEpochCollectorNeverPushed(t *testing.T) {
	_, c, _ := epochFixture(t, time.Minute, 0)
	if _, _, err := c.CollectDetailed(context.Background()); err == nil {
		t.Fatal("empty store served a context")
	}
	if _, err := c.Collect(context.Background()); err == nil {
		t.Fatal("strict collect served an empty store")
	}
}

func TestEpochCollectorContextCanceled(t *testing.T) {
	st, c, clk := epochFixture(t, time.Minute, 0)
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.CollectDetailed(ctx); err == nil {
		t.Fatal("canceled context served")
	}
}

// TestEpochCollectorStalenessExpiry drives the full provenance ladder as
// pushes stop: fresh within FreshFor, stale within the Staleness budget,
// missing beyond it — and checks the strict path rejects once missing.
func TestEpochCollectorStalenessExpiry(t *testing.T) {
	st, c, clk := epochFixture(t, time.Minute, 5*time.Minute)
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	ctx := context.Background()

	states := func() SourceState {
		t.Helper()
		_, prov, err := c.CollectDetailed(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return prov[0].State
	}

	if got := states(); got != SourceFresh {
		t.Fatalf("at push time: %s, want fresh", got)
	}
	clk.Advance(59 * time.Second)
	if got := states(); got != SourceFresh {
		t.Fatalf("within FreshFor: %s, want fresh", got)
	}
	clk.Advance(2 * time.Second) // 1m01s: past FreshFor, within Staleness
	if got := states(); got != SourceStale {
		t.Fatalf("past FreshFor: %s, want stale", got)
	}
	// Stale still serves values and the strict path still accepts (within
	// budget mirrors MultiCollector's bounded-stale fallback).
	if _, err := c.Collect(ctx); err != nil {
		t.Fatalf("stale-within-budget strict collect: %v", err)
	}
	clk.Advance(5 * time.Minute) // 6m01s: past Staleness
	_, prov, err := c.CollectDetailed(ctx)
	if err == nil {
		t.Fatal("single-source store with expired push still served")
	}
	if prov[0].State != SourceMissing {
		t.Fatalf("past Staleness: %s, want missing", prov[0].State)
	}
	if !strings.Contains(prov[0].Err, "staleness budget") {
		t.Fatalf("missing Err = %q", prov[0].Err)
	}
	if _, err := c.Collect(ctx); err == nil {
		t.Fatal("strict collect served an expired required source")
	}
	// A new push revives the source.
	clk.Advance(time.Second)
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	if got := states(); got != SourceFresh {
		t.Fatalf("after revival push: %s, want fresh", got)
	}
}

// TestEpochCollectorZeroStalenessSkipsStaleBand: with Staleness zero the
// source goes straight from fresh to missing.
func TestEpochCollectorZeroStalenessSkipsStaleBand(t *testing.T) {
	st, c, clk := epochFixture(t, time.Minute, 0)
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	clk.Advance(time.Minute + time.Second)
	_, prov, err := c.CollectDetailed(context.Background())
	if err == nil {
		t.Fatal("expired single source served")
	}
	if prov[0].State != SourceMissing {
		t.Fatalf("state = %s, want missing (no stale band)", prov[0].State)
	}
}

// TestEpochCollectorMixedSources: an optional source expiring degrades the
// context without blocking service; a required one blocks the strict path.
func TestEpochCollectorMixedSources(t *testing.T) {
	clk := newEpochClock()
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour},
		epoch.SourceConfig{Name: "aux", Required: false, FreshFor: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	pushScene(t, st, "aux", legalCtx(t, dataset.ModelWindow), clk.Now())
	clk.Advance(2 * time.Minute) // aux expires, sim stays fresh
	snap, prov, err := c.CollectDetailed(context.Background())
	if err != nil {
		t.Fatalf("optional expiry blocked service: %v", err)
	}
	if !prov.Degraded() {
		t.Fatal("expired optional source not reported")
	}
	if len(prov.MissingRequired()) != 0 {
		t.Fatalf("optional source counted as required: %v", prov.MissingRequired())
	}
	if snap.Len() == 0 {
		t.Fatal("degraded view lost its values")
	}
	if _, err := c.Collect(context.Background()); err != nil {
		t.Fatalf("strict collect with only optional missing: %v", err)
	}
}

// TestAuthorizeEpochFailsClosed: the framework over an EpochCollector
// rejects sensitive instructions once the required source's pushes expire,
// and still judges non-sensitive ones against the lingering context. A
// second optional source stays live so the view remains serviceable — a
// store with no live source at all errors out of Authorize instead, same
// as MultiCollector's every-source-failed path.
func TestAuthorizeEpochFailsClosed(t *testing.T) {
	clk := newEpochClock()
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Minute, Staleness: 5 * time.Minute},
		epoch.SourceConfig{Name: "aux", Required: false, FreshFor: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	pushScene(t, st, "aux", sensor.Snapshot{}, clk.Now())
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: c,
		Memory:    memoryForTest(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	winOpen := buildInstr(t, "window.open", "window-1")
	dec, err := f.Authorize(ctx, winOpen)
	if err != nil || !dec.Allowed {
		t.Fatalf("fresh push: dec=%+v err=%v", dec, err)
	}
	clk.Advance(10 * time.Minute) // required source expires
	dec, err = f.Authorize(ctx, winOpen)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("sensitive instruction allowed with required source expired")
	}
	if !strings.Contains(dec.Reason, "fail closed") {
		t.Fatalf("reason = %q, want fail-closed", dec.Reason)
	}
	// Non-sensitive instructions still judge against the partial context.
	tvOn := buildInstr(t, "tv.on", "tv-1")
	if f.stage.judger.detector.IsSensitive(tvOn) {
		t.Fatal("fixture assumption broken: tv.on should be non-sensitive")
	}
	dec, err = f.Authorize(ctx, tvOn)
	if err != nil {
		t.Fatalf("non-sensitive under degraded context: %v", err)
	}
	if !dec.Allowed {
		t.Fatalf("non-sensitive rejected under degraded context: %+v", dec)
	}
}

// TestAuthorizeEpochSteadyStateAllocs is the tentpole's acceptance gate:
// full instrumented Authorize over the epoch read path allocates nothing
// in steady state.
func TestAuthorizeEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	reg := obs.NewRegistry()
	clk := newEpochClock()
	st, err := epoch.NewStore(epoch.Config{Now: clk.Now, Metrics: reg},
		epoch.SourceConfig{Name: "sim", Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewEpochCollector(EpochCollectorConfig{Now: clk.Now}, st)
	if err != nil {
		t.Fatal(err)
	}
	pushScene(t, st, "sim", legalCtx(t, dataset.ModelWindow), clk.Now())
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: c,
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
		t.Errorf("epoch Authorize steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEpochMatchesPolledDecisions: the same scene served through the epoch
// store and through a plain polled collector must produce bit-identical
// decisions.
func TestEpochMatchesPolledDecisions(t *testing.T) {
	ops := []struct{ op, dev string }{
		{"window.open", "window-1"},
		{"window.close", "window-1"},
		{"tv.on", "tv-1"},
	}
	for _, scene := range []sensor.Snapshot{
		legalCtx(t, dataset.ModelWindow),
		attackCtx(t, dataset.ModelWindow),
	} {
		st, c, clk := epochFixture(t, time.Hour, 0)
		pushScene(t, st, "sim", scene, clk.Now())
		fEpoch, err := New(Config{Detector: detectorForTest(t), Collector: c, Memory: memoryForTest(t)})
		if err != nil {
			t.Fatal(err)
		}
		fPolled, err := New(Config{
			Detector:  detectorForTest(t),
			Collector: CollectorFunc(func(ctx context.Context) (sensor.Snapshot, error) { return scene, nil }),
			Memory:    memoryForTest(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			in := buildInstr(t, o.op, o.dev)
			de, err := fEpoch.Authorize(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := fPolled.Authorize(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if de != dp {
				t.Fatalf("%s decisions diverge: epoch=%+v polled=%+v", o.op, de, dp)
			}
		}
	}
}
