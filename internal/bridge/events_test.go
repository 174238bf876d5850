package bridge

import (
	"encoding/json"
	"testing"
	"time"

	"iotsid/internal/home"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
)

func TestEventPumpPushesChanges(t *testing.T) {
	h := newHome(t)
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	listener, err := miio.SubscribeDevMode(dev.Addr().String(), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	// First tick primes only.
	n, err := pump.Tick()
	if err != nil || n != 0 {
		t.Fatalf("priming tick = %d, %v", n, err)
	}
	// Flip the smoke sensor; the next tick must report it.
	spoof := sensor.NewSnapshot(h.Env().Now())
	spoof.Set(sensor.FeatSmoke, sensor.Bool(true))
	h.Env().Apply(spoof)
	n, err = pump.Tick()
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if n == 0 {
		t.Fatal("no reports pushed for a changed sensor")
	}
	// The smoke report arrives and decodes back to the canonical feature.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case r, ok := <-listener.Reports():
			if !ok {
				t.Fatal("report channel closed")
			}
			var raw map[string]any
			if err := json.Unmarshal(r.Data, &raw); err != nil {
				t.Fatalf("report data: %v", err)
			}
			snap, err := XiaomiNormalizer().Normalize(raw, time.Time{})
			if err != nil {
				t.Fatalf("Normalize: %v", err)
			}
			if val, ok := snap.Get(sensor.FeatSmoke); ok {
				if b, _ := val.Bool(); !b {
					t.Fatalf("smoke report decoded to %v", val)
				}
				return // success
			}
		case <-deadline:
			t.Fatal("smoke report never arrived")
		}
	}
}

func TestEventPumpQuiescentNoReports(t *testing.T) {
	h := newHome(t)
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pump.Tick(); err != nil {
		t.Fatal(err)
	}
	// No environment change between ticks → nothing pushed.
	n, err := pump.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("quiescent tick pushed %d reports", n)
	}
}

func TestEventPumpValidation(t *testing.T) {
	if _, err := NewEventPump(nil, nil); err == nil {
		t.Error("want validation error")
	}
}

func TestHomeSmokeEventEndToEnd(t *testing.T) {
	// Full loop: environment physics tick → pump → devmode → listener.
	h, err := home.NewStandard(home.EnvConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := miio.NewDevMode(miio.DevModeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	listener, err := miio.SubscribeDevMode(dev.Addr().String(), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	pump, err := NewEventPump(h.Env(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pump.Tick(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 50; i++ {
		h.Env().Step(7 * time.Minute)
		n, err := pump.Tick()
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("50 physics ticks produced no sensor reports")
	}
}
