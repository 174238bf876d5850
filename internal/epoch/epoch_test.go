package epoch

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// testClock is a manually advanced clock for deterministic age arithmetic.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock {
	return &testClock{now: time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func delta(at time.Time, f sensor.Feature, v sensor.Value) sensor.Snapshot {
	d := sensor.NewSnapshot(at)
	d.Set(f, v)
	return d
}

func TestNewStoreValidation(t *testing.T) {
	cases := []struct {
		name    string
		sources []SourceConfig
	}{
		{"no sources", nil},
		{"empty name", []SourceConfig{{Name: ""}}},
		{"duplicate name", []SourceConfig{{Name: "sim"}, {Name: "sim"}}},
		{"staleness below fresh", []SourceConfig{{Name: "sim", FreshFor: time.Minute, Staleness: time.Second}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewStore(Config{}, tc.sources...); err == nil {
				t.Fatalf("NewStore(%v) accepted invalid config", tc.sources)
			}
		})
	}
}

func TestNewStoreDefaults(t *testing.T) {
	st, err := NewStore(Config{}, SourceConfig{Name: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	srcs := st.Sources()
	if srcs[0].FreshFor != time.Minute {
		t.Fatalf("zero FreshFor not defaulted: got %v", srcs[0].FreshFor)
	}
	v := st.View()
	if v.Epoch != 0 || v.Snap.Len() != 0 || len(v.PushedAt) != 1 || !v.PushedAt[0].IsZero() {
		t.Fatalf("initial view not the empty epoch-0 view: %+v", v)
	}
}

func TestPushUnknownSource(t *testing.T) {
	st, err := NewStore(Config{}, SourceConfig{Name: "sim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("ghost", sensor.Snapshot{}); err == nil {
		t.Fatal("push from undeclared source accepted")
	}
}

// TestPushCopyOnWrite checks the core invariant: a publish never mutates a
// previously handed-out view.
func TestPushCopyOnWrite(t *testing.T) {
	clk := newTestClock()
	st, err := NewStore(Config{Now: clk.Now},
		SourceConfig{Name: "miio"}, SourceConfig{Name: "st"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("miio", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	v1 := st.View()
	if v1.Epoch != 1 {
		t.Fatalf("epoch after first push = %d, want 1", v1.Epoch)
	}
	clk.Advance(time.Second)
	if err := st.Push("st", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(false))); err != nil {
		t.Fatal(err)
	}
	v2 := st.View()
	if v2.Epoch != 2 {
		t.Fatalf("epoch after second push = %d, want 2", v2.Epoch)
	}
	// The old view must still say motion=true; the new one false.
	if got, _ := v1.Snap.Get(sensor.FeatMotion); got != sensor.Bool(true) {
		t.Fatalf("published view mutated in place: v1 motion = %v", got)
	}
	if got, _ := v2.Snap.Get(sensor.FeatMotion); got != sensor.Bool(false) {
		t.Fatalf("v2 motion = %v, want false", got)
	}
	if !v1.PushedAt[1].IsZero() {
		t.Fatalf("v1 PushedAt for st retroactively set: %v", v1.PushedAt[1])
	}
	if v2.PushedAt[0] != v1.PushedAt[0] || v2.PushedAt[1] != clk.Now() {
		t.Fatalf("v2 PushedAt wrong: %v", v2.PushedAt)
	}
	if !v2.At.Equal(clk.Now()) || !v2.Snap.At.Equal(clk.Now()) {
		t.Fatalf("v2 At = %v / %v, want %v", v2.At, v2.Snap.At, clk.Now())
	}
}

// TestPushMergesAcrossSources: untouched features persist across publishes
// from other sources.
func TestPushMergesAcrossSources(t *testing.T) {
	clk := newTestClock()
	st, err := NewStore(Config{Now: clk.Now},
		SourceConfig{Name: "miio"}, SourceConfig{Name: "st"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("miio", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if err := st.Push("st", delta(clk.Now(), sensor.FeatTempIndoor, sensor.Number(21))); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if !v.Snap.Bool(sensor.FeatMotion) {
		t.Fatal("miio's motion lost after st push")
	}
	if n, ok := v.Snap.Number(sensor.FeatTempIndoor); !ok || n != 21 {
		t.Fatalf("st's temperature missing: %v %v", n, ok)
	}
}

// TestPushOutOfOrderDropped: a delta older than the source's newest accepted
// event must not roll the context back.
func TestPushOutOfOrderDropped(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	st, err := NewStore(Config{Now: clk.Now, Metrics: reg}, SourceConfig{Name: "miio"})
	if err != nil {
		t.Fatal(err)
	}
	t2 := clk.Now()
	if err := st.Push("miio", delta(t2, sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	stale := delta(t2.Add(-time.Second), sensor.FeatMotion, sensor.Bool(false))
	if err := st.Push("miio", stale); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if v.Epoch != 1 {
		t.Fatalf("stale delta published: epoch %d", v.Epoch)
	}
	if !v.Snap.Bool(sensor.FeatMotion) {
		t.Fatal("stale delta rolled motion back")
	}
	expositionContains(t, reg, `iotsid_epoch_drops_total{source="miio",reason="out_of_order"} 1`)
	expositionContains(t, reg, `iotsid_epoch_drops_total{source="miio",reason="zero_value"} 0`)
	// Equal event times are accepted: two sensors can legitimately report in
	// the same tick of a simulated clock.
	if err := st.Push("miio", delta(t2, sensor.FeatMotion, sensor.Bool(false))); err != nil {
		t.Fatal(err)
	}
	if got := st.View().Epoch; got != 2 {
		t.Fatalf("equal-time delta dropped: epoch %d", got)
	}
}

// TestPushZeroValueDropped: a delta smuggling an absent (JSON null) value
// must not shadow a real reading in the merged view — it is dropped and
// counted under its own reason label, distinguishable from replays.
func TestPushZeroValueDropped(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	st, err := NewStore(Config{Now: clk.Now, Metrics: reg}, SourceConfig{Name: "miio"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("miio", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	null := delta(clk.Now(), sensor.FeatMotion, sensor.Value{})
	if err := st.Push("miio", null); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if v.Epoch != 1 {
		t.Fatalf("null-valued delta published: epoch %d", v.Epoch)
	}
	if !v.Snap.Bool(sensor.FeatMotion) {
		t.Fatal("null value shadowed the real reading")
	}
	expositionContains(t, reg, `iotsid_epoch_drops_total{source="miio",reason="zero_value"} 1`)
	expositionContains(t, reg, `iotsid_epoch_drops_total{source="miio",reason="out_of_order"} 0`)
}

// TestPushObserveHook: every push attempt — accepted, replayed or
// null-valued — reaches the Observe hook with the resolved event time.
func TestPushObserveHook(t *testing.T) {
	clk := newTestClock()
	type seen struct {
		source string
		n      int
		at     time.Time
	}
	var calls []seen
	cfg := Config{Now: clk.Now, Observe: func(source string, d sensor.Snapshot, at time.Time) {
		calls = append(calls, seen{source: source, n: d.Len(), at: at})
	}}
	st, err := NewStore(cfg, SourceConfig{Name: "miio"})
	if err != nil {
		t.Fatal(err)
	}
	t1 := clk.Now()
	if err := st.Push("miio", delta(t1, sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	// A replayed delta is dropped from the view but still observed.
	if err := st.Push("miio", delta(t1.Add(-time.Minute), sensor.FeatMotion, sensor.Bool(false))); err != nil {
		t.Fatal(err)
	}
	// A zero-time heartbeat is observed with the store clock.
	clk.Advance(10 * time.Second)
	if err := st.Push("miio", sensor.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	// An unknown source never reaches the hook.
	if err := st.Push("ghost", sensor.Snapshot{}); err == nil {
		t.Fatal("unknown source accepted")
	}
	if len(calls) != 3 {
		t.Fatalf("observe calls = %d, want 3", len(calls))
	}
	if calls[0].at != t1 || calls[0].n != 1 {
		t.Fatalf("accepted push observed as %+v", calls[0])
	}
	if calls[1].at != t1.Add(-time.Minute) {
		t.Fatalf("replayed push observed at %v", calls[1].at)
	}
	if calls[2].at != clk.Now() || calls[2].n != 0 {
		t.Fatalf("heartbeat observed as %+v", calls[2])
	}
}

// TestPushEmptyDeltaHeartbeat: an empty delta refreshes liveness without
// touching values.
func TestPushEmptyDeltaHeartbeat(t *testing.T) {
	clk := newTestClock()
	st, err := NewStore(Config{Now: clk.Now}, SourceConfig{Name: "miio"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push("miio", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(true))); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	if err := st.Push("miio", sensor.Snapshot{}); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if v.Epoch != 2 {
		t.Fatalf("heartbeat not published: epoch %d", v.Epoch)
	}
	if !v.Snap.Bool(sensor.FeatMotion) {
		t.Fatal("heartbeat clobbered values")
	}
	if v.PushedAt[0] != clk.Now() {
		t.Fatalf("heartbeat did not refresh PushedAt: %v", v.PushedAt[0])
	}
}

// TestPushZeroTimeStamped: a delta with no event time is stamped with the
// store clock rather than treated as infinitely old.
func TestPushZeroTimeStamped(t *testing.T) {
	clk := newTestClock()
	st, err := NewStore(Config{Now: clk.Now}, SourceConfig{Name: "miio"})
	if err != nil {
		t.Fatal(err)
	}
	d := sensor.Snapshot{}
	d.Set(sensor.FeatMotion, sensor.Bool(true))
	if err := st.Push("miio", d); err != nil {
		t.Fatal(err)
	}
	v := st.View()
	if !v.At.Equal(clk.Now()) {
		t.Fatalf("zero-time delta not stamped with store clock: %v", v.At)
	}
}

func TestPushMetrics(t *testing.T) {
	clk := newTestClock()
	reg := obs.NewRegistry()
	st, err := NewStore(Config{Now: clk.Now, Metrics: reg},
		SourceConfig{Name: "miio"}, SourceConfig{Name: "st"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := st.Push("miio", delta(clk.Now(), sensor.FeatMotion, sensor.Bool(i%2 == 0))); err != nil {
			t.Fatal(err)
		}
	}
	// One event-time push lagging the publish clock by 2s.
	if err := st.Push("st", delta(clk.Now().Add(-2*time.Second).Add(time.Hour), sensor.FeatTempIndoor, sensor.Number(20))); err != nil {
		t.Fatal(err)
	}
	expositionContains(t, reg, `iotsid_epoch_publishes_total{source="miio"} 3`)
	expositionContains(t, reg, `iotsid_epoch_publishes_total{source="st"} 1`)
	expositionContains(t, reg, `iotsid_epoch_current 4`)
	expositionContains(t, reg, `iotsid_epoch_publish_lag_seconds_count 4`)
}

// TestPushConcurrent hammers the store from several writers while a reader
// spins; run under -race this is the store's memory-model gate, and the
// epoch count must equal the number of accepted publishes exactly.
func TestPushConcurrent(t *testing.T) {
	st, err := NewStore(Config{},
		SourceConfig{Name: "a"}, SourceConfig{Name: "b"}, SourceConfig{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	const perSource = 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // reader: epochs must never decrease
		defer readers.Done()
		var last uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := st.View().Epoch
			if e < last {
				t.Error("epoch went backwards")
				return
			}
			last = e
		}
	}()
	var writers sync.WaitGroup
	for _, src := range []string{"a", "b", "c"} {
		writers.Add(1)
		go func(src string) {
			defer writers.Done()
			for i := 0; i < perSource; i++ {
				d := sensor.Snapshot{}
				d.Set(sensor.FeatPowerDraw, sensor.Number(float64(i)))
				if err := st.Push(src, d); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := st.View().Epoch; got != 3*perSource {
		t.Fatalf("epoch = %d, want %d", got, 3*perSource)
	}
}

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
