package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// TestChaosPlanDeterminism: the fault plan is a pure function of
// (seed, call index) — two plans with equal seeds agree on every call, a
// different seed diverges somewhere.
func TestChaosPlanDeterminism(t *testing.T) {
	const calls = 300
	a := ChaosPlan(42, 0.2, 0.1, 0.1)
	b := ChaosPlan(42, 0.2, 0.1, 0.1)
	c := ChaosPlan(43, 0.2, 0.1, 0.1)
	diverged := false
	counts := map[FaultKind]int{}
	for i := 0; i < calls; i++ {
		if a(i) != b(i) {
			t.Fatalf("equal seeds diverge at call %d: %v vs %v", i, a(i), b(i))
		}
		if a(i) != c(i) {
			diverged = true
		}
		counts[a(i)]++
	}
	if !diverged {
		t.Error("different seeds produced identical plans")
	}
	// With 40% total fault probability every class shows up in 300 draws.
	for _, k := range []FaultKind{FaultNone, FaultError, FaultHang, FaultByzantine} {
		if counts[k] == 0 {
			t.Errorf("fault class %v never drawn", k)
		}
	}
}

// TestChaosCollectorFaults drives each fault class through the wrapper.
func TestChaosCollectorFaults(t *testing.T) {
	healthy := sensor.NewSnapshot(time.Unix(5, 0))
	healthy.Set(sensor.FeatSmoke, sensor.Bool(false))
	healthy.Set(sensor.FeatAirQuality, sensor.Number(30))
	script := []FaultKind{FaultNone, FaultError, FaultByzantine, FaultHang}
	cc := &ChaosCollector{
		Inner: staticCollector{snap: healthy},
		Plan:  func(call int) FaultKind { return script[call%len(script)] },
	}

	// Call 0: pass-through.
	snap, err := cc.Collect(context.Background())
	if err != nil || snap.Bool(sensor.FeatSmoke) {
		t.Fatalf("pass-through = %v, %v", snap.Features(), err)
	}

	// Call 1: injected error.
	if _, err := cc.Collect(context.Background()); err == nil {
		t.Fatal("want injected error")
	}

	// Call 2: byzantine — booleans flipped, numbers intact, original
	// snapshot untouched.
	snap, err = cc.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Bool(sensor.FeatSmoke) {
		t.Fatal("byzantine corruption did not flip the boolean")
	}
	if n, _ := snap.Number(sensor.FeatAirQuality); n != 30 {
		t.Errorf("byzantine corruption touched a number: %v", n)
	}
	if healthy.Bool(sensor.FeatSmoke) {
		t.Fatal("corruption mutated the inner snapshot")
	}

	// Call 3: hang — it ends at once as timed out, with no deadline set.
	if _, err := cc.Collect(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang fault = %v, want deadline exceeded", err)
	}

	if cc.Calls() != 4 {
		t.Errorf("Calls = %d, want 4", cc.Calls())
	}

	// Custom corruption hook wins over the default.
	cc2 := &ChaosCollector{
		Inner: staticCollector{snap: healthy},
		Plan:  func(int) FaultKind { return FaultByzantine },
		Corrupt: func(s sensor.Snapshot) sensor.Snapshot {
			out := s.Clone()
			out.Set(sensor.FeatAirQuality, sensor.Number(999))
			return out
		},
	}
	snap, err = cc2.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := snap.Number(sensor.FeatAirQuality); n != 999 {
		t.Errorf("custom corruption not applied: %v", n)
	}

	// No inner collector is an error, not a panic.
	if _, err := (&ChaosCollector{}).Collect(context.Background()); err == nil {
		t.Error("want nil-inner error")
	}
}

// TestNumericCorruptionModes: each corruption kind transforms the target
// feature as specified and leaves everything else untouched.
func TestNumericCorruptionModes(t *testing.T) {
	base := sensor.NewSnapshot(time.Unix(5, 0))
	base.Set(sensor.FeatAirQuality, sensor.Number(50))
	base.Set(sensor.FeatMotion, sensor.Bool(true))

	spike := NumericCorruption(CorruptSpike, sensor.FeatAirQuality, 300)
	if got, _ := spike(0, base).Number(sensor.FeatAirQuality); got != 350 {
		t.Fatalf("spike = %v, want 350", got)
	}
	stuck := NumericCorruption(CorruptStuck, sensor.FeatAirQuality, 77)
	for call := 0; call < 3; call++ {
		if got, _ := stuck(call, base).Number(sensor.FeatAirQuality); got != 77 {
			t.Fatalf("stuck call %d = %v, want 77", call, got)
		}
	}
	drift := NumericCorruption(CorruptDrift, sensor.FeatAirQuality, 1.5)
	if got, _ := drift(0, base).Number(sensor.FeatAirQuality); got != 51.5 {
		t.Fatalf("drift call 0 = %v, want 51.5", got)
	}
	if got, _ := drift(9, base).Number(sensor.FeatAirQuality); got != 65 {
		t.Fatalf("drift call 9 = %v, want 65", got)
	}
	// The original snapshot is never mutated, and other features survive.
	if got, _ := base.Number(sensor.FeatAirQuality); got != 50 {
		t.Fatalf("corruption mutated the input: %v", got)
	}
	if !drift(3, base).Bool(sensor.FeatMotion) {
		t.Fatal("corruption dropped an untouched feature")
	}
	// Snapshots without the target feature pass through untouched.
	empty := sensor.NewSnapshot(time.Unix(5, 0))
	empty.Set(sensor.FeatMotion, sensor.Bool(false))
	if out := spike(0, empty); out.Len() != 1 {
		t.Fatalf("missing-feature snapshot altered: %v", out.Features())
	}
}

// TestChaosCorruptAtPrecedence: CorruptAt wins over Corrupt and receives
// the live call index, so drift accumulates across byzantine calls.
func TestChaosCorruptAtPrecedence(t *testing.T) {
	healthy := sensor.NewSnapshot(time.Unix(5, 0))
	healthy.Set(sensor.FeatAirQuality, sensor.Number(100))
	cc := &ChaosCollector{
		Inner:     staticCollector{snap: healthy},
		Plan:      func(call int) FaultKind { return FaultByzantine },
		Corrupt:   func(s sensor.Snapshot) sensor.Snapshot { t.Fatal("Corrupt called despite CorruptAt"); return s },
		CorruptAt: NumericCorruption(CorruptDrift, sensor.FeatAirQuality, 2),
	}
	want := []float64{102, 104, 106}
	for call, w := range want {
		snap, err := cc.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := snap.Number(sensor.FeatAirQuality); got != w {
			t.Fatalf("call %d = %v, want %v", call, got, w)
		}
	}
}
