package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// trustEngine builds a single-source per-home engine tuned so two
// invariant violations cross the threshold.
func trustEngine(t testing.TB) *trust.Engine {
	t.Helper()
	e, err := trust.NewEngine(trust.Config{Threshold: 0.5, Decay: 0.7},
		trust.SourceConfig{Name: "push", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// corruptCtx is the legal window scene with a physically impossible aqi —
// every push fires the aqi_range invariant.
func corruptCtx(t testing.TB, at time.Time) sensor.Snapshot {
	t.Helper()
	s := legalCtx(t, dataset.ModelWindow).Clone()
	s.At = at
	s.Set(sensor.FeatAirQuality, sensor.Number(-1))
	return s
}

// TestFleetTrustFailClosed is the fleet tentpole gate: a spoofed home
// keeps pushing fresh, well-typed, physically impossible context; its
// trust collapses and sensitive instructions fail closed with the
// interned low-trust reason while an untouched neighbour home and the
// spoofed home's own non-sensitive traffic keep working.
func TestFleetTrustFailClosed(t *testing.T) {
	f := fleetForTest(t, Config{Shards: 4})
	spoofed := mustAddHome(t, f, HomeConfig{ID: "spoofed", Trust: trustEngine(t)})
	mustAddHome(t, f, HomeConfig{ID: "honest"})
	ctx := context.Background()
	open := buildInstr(t, "window.open", "win-1")
	clean := legalCtx(t, dataset.ModelWindow)

	for _, id := range []string{"spoofed", "honest"} {
		if err := f.PushContext(id, clean); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := authorizeOne(ctx, f, "spoofed", open)
	if err != nil || !dec.Allowed {
		t.Fatalf("clean push on trust-armed home: dec=%+v err=%v", dec, err)
	}
	if score := spoofed.trust.ScoreIdx(0); score != 1 {
		t.Fatalf("trust score after clean push = %v, want 1", score)
	}
	if got := f.LowTrustHomes(); got != 0 {
		t.Fatalf("LowTrustHomes after clean pushes = %d, want 0", got)
	}

	// The attack: two impossible pushes, both fresh by every clock.
	at := clean.At
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		if err := f.PushContext("spoofed", corruptCtx(t, at)); err != nil {
			t.Fatal(err)
		}
	}
	if !spoofed.LowTrust() {
		t.Fatalf("spoofed home still trusted at score %v", spoofed.trust.ScoreIdx(0))
	}

	dec, err = authorizeOne(ctx, f, "spoofed", open)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("sensitive instruction allowed on a low-trust home")
	}
	if dec.Reason != core.ReasonLowTrust {
		t.Fatalf("reason = %q, want the interned low-trust reason", dec.Reason)
	}

	// Non-sensitive traffic on the spoofed home still judges...
	dec, err = authorizeOne(ctx, f, "spoofed", buildInstr(t, "light.get_state", "lamp-1"))
	if err != nil || !dec.Allowed {
		t.Fatalf("non-sensitive on low-trust home: dec=%+v err=%v", dec, err)
	}
	// ...and the honest neighbour is untouched by its tenant's collapse.
	dec, err = authorizeOne(ctx, f, "honest", open)
	if err != nil || !dec.Allowed {
		t.Fatalf("honest home after neighbour collapse: dec=%+v err=%v", dec, err)
	}
	if got := f.LowTrustHomes(); got != 1 {
		t.Fatalf("LowTrustHomes = %d, want 1", got)
	}
}

// TestFleetTrustValidation: AddHome must resolve the trust source up
// front — authorization paths never validate.
func TestFleetTrustValidation(t *testing.T) {
	f := fleetForTest(t, Config{})
	two, err := trust.NewEngine(trust.Config{},
		trust.SourceConfig{Name: "a"}, trust.SourceConfig{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddHome(HomeConfig{ID: "h2", Trust: two}); err == nil ||
		!strings.Contains(err.Error(), "declares 2 sources") {
		t.Fatalf("two-source trust engine accepted: %v", err)
	}
}

// TestFleetTrustSteadyStateAllocs extends the fleet alloc gate with the
// per-home trust check armed: still zero allocations per batch item (authorizeHome).
func TestFleetTrustSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := fleetForTest(t, Config{
		Shards:  8,
		Metrics: obs.NewRegistry(),
	})
	mustAddHome(t, f, HomeConfig{ID: "home-1", Trust: trustEngine(t)})
	if err := f.PushContext("home-1", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "win-1")
	for i := 0; i < 3; i++ {
		authorizeItem(t, f, "home-1", in)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec := authorizeItem(t, f, "home-1", in)
		if !dec.Allowed {
			t.Fatalf("steady-state authorize rejected: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("trust-armed fleet authorizeHome allocates %.1f/op, want 0", allocs)
	}
}

// TestFleetTrustFailClosedAllocs pins the low-trust rejection itself to
// zero allocations: a spoofed feed hammering sensitive ops must not
// allocate on our side either.
func TestFleetTrustFailClosedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	mustAddHome(t, f, HomeConfig{ID: "spoofed", Trust: trustEngine(t)})
	clean := legalCtx(t, dataset.ModelWindow)
	if err := f.PushContext("spoofed", clean); err != nil {
		t.Fatal(err)
	}
	at := clean.At
	for i := 0; i < 2; i++ {
		at = at.Add(time.Second)
		if err := f.PushContext("spoofed", corruptCtx(t, at)); err != nil {
			t.Fatal(err)
		}
	}
	in := buildInstr(t, "window.open", "win-1")
	for i := 0; i < 3; i++ {
		authorizeItem(t, f, "spoofed", in)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec := authorizeItem(t, f, "spoofed", in)
		if dec.Allowed || dec.Reason != core.ReasonLowTrust {
			t.Fatalf("low-trust home decision: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("low-trust fail-closed authorizeHome allocates %.1f/op, want 0", allocs)
	}
}
