package bridge

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"iotsid/internal/epoch"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
)

// TestEventPumpMidBatchFailureRedelivers is the regression test for the
// pump's baseline handling: when a push fails mid-batch (here: an
// unencodable NaN AQI makes the devmode marshal fail at table position 6),
// the features after the failure point must stay dirty and go out on the
// next tick, and the features already pushed must not be duplicated.
func TestEventPumpMidBatchFailureRedelivers(t *testing.T) {
	h := newHome(t)
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dev.Close() }()
	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pump.Tick(); err != nil { // prime
		t.Fatal(err)
	}
	base := h.Env().Snapshot()
	baseAQI, _ := base.Number(sensor.FeatAirQuality)

	// Three changes: smoke (before the poisoned prop), AQI (poisoned —
	// json.Marshal rejects NaN), window (after the poisoned prop).
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(!base.Bool(sensor.FeatSmoke)))
	spoof.Set(sensor.FeatAirQuality, sensor.Number(math.NaN()))
	spoof.Set(sensor.FeatWindowOpen, sensor.Bool(!base.Bool(sensor.FeatWindowOpen)))
	h.Env().Apply(spoof)

	pushed, err := pump.Tick()
	if err == nil {
		t.Fatal("NaN AQI encoded without error")
	}
	if !strings.Contains(err.Error(), "aqi") {
		t.Fatalf("error does not name the failing prop: %v", err)
	}
	if pushed != 1 {
		t.Fatalf("pushed %d before the failure, want 1 (smoke only)", pushed)
	}

	// Heal the poisoned value; the retry tick must deliver the AQI and the
	// window change it previously could not, and must NOT re-push smoke.
	heal := sensor.NewSnapshot(h.Env().Now())
	heal.Set(sensor.FeatAirQuality, sensor.Number(baseAQI+7))
	h.Env().Apply(heal)
	pushed, err = pump.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if pushed != 2 {
		t.Fatalf("recovery tick pushed %d, want 2 (aqi + window, no smoke duplicate)", pushed)
	}
	// Quiescent after recovery.
	pushed, err = pump.Tick()
	if err != nil || pushed != 0 {
		t.Fatalf("post-recovery tick = %d, %v, want 0, nil", pushed, err)
	}
}

func feedStore(t *testing.T, source string) *epoch.Store {
	t.Helper()
	st, err := epoch.NewStore(epoch.Config{},
		epoch.SourceConfig{Name: source, Required: true, FreshFor: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSTPoller(t *testing.T) {
	h := newHome(t)
	_, client := startST(t, h)
	st := feedStore(t, "st")
	poller, err := NewSTPoller(client, st, "st")
	if err != nil {
		t.Fatal(err)
	}
	n, err := poller.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("poll pushed an empty delta")
	}
	v := st.View()
	if v.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", v.Epoch)
	}
	// The pushed delta matches the environment's own snapshot.
	env := h.Env().Snapshot()
	for _, f := range []sensor.Feature{sensor.FeatSmoke, sensor.FeatMotion, sensor.FeatOccupancy} {
		if v.Snap.Bool(f) != env.Bool(f) {
			t.Errorf("feature %s: pushed %v, env %v", f, v.Snap.Bool(f), env.Bool(f))
		}
	}
	if _, err := NewSTPoller(nil, st, "st"); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := NewSTPoller(client, nil, "st"); err == nil {
		t.Error("nil store accepted")
	}
}
