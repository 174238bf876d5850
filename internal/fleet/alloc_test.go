package fleet

import (
	"context"
	"testing"
	"unsafe"

	"iotsid/internal/dataset"
	"iotsid/internal/obs"
)

// TestFleetAuthorizeSteadyStateAllocs is the fleet's perf contract: once a
// home has pushed fresh context, a per-home Authorize is a shard-map
// lookup, an atomic view load, the shared registry's pooled judge, a ring
// append, and counter increments — zero heap allocations, with metrics
// enabled.
func TestFleetAuthorizeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := fleetForTest(t, Config{
		Shards:  8,
		Metrics: obs.NewRegistry(),
	})
	mustAddHome(t, f, HomeConfig{ID: "home-1"})
	if err := f.PushContext("home-1", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "win-1")
	ctx := context.Background()

	// Warm: intern reasons, fill the feature-buffer pool.
	for i := 0; i < 3; i++ {
		if _, err := f.Authorize(ctx, "home-1", in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec, err := f.Authorize(ctx, "home-1", in)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatalf("steady-state authorize rejected: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state fleet Authorize allocates %.1f/op, want 0", allocs)
	}
}

// TestFleetFailClosedSteadyStateAllocs pins the degraded no-context path
// (interned static reason, no collector) to zero allocations too — an
// attacker spamming a cold home must not be able to allocate on our side.
func TestFleetFailClosedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	mustAddHome(t, f, HomeConfig{ID: "cold"})
	in := buildInstr(t, "window.open", "win-1")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := f.Authorize(ctx, "cold", in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec, err := f.Authorize(ctx, "cold", in)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed {
			t.Fatalf("cold home allowed a sensitive op: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("fail-closed fleet Authorize allocates %.1f/op, want 0", allocs)
	}
}

// TestHomeSize pins a home's fixed state at 240 B: a fleet keeps one per
// tenant, so per-home bytes are what move its setup heap.
func TestHomeSize(t *testing.T) {
	if got := unsafe.Sizeof(Home{}); got > 240 {
		t.Fatalf("Home is %d B, want <= 240", got)
	}
}

// BenchmarkFleetAuthorize measures the steady-state per-home hot path.
func BenchmarkFleetAuthorize(b *testing.B) {
	f := fleetForTest(b, Config{Shards: 16, Metrics: obs.NewRegistry()})
	mustAddHome(b, f, HomeConfig{ID: "home-1"})
	if err := f.PushContext("home-1", legalCtx(b, dataset.ModelWindow)); err != nil {
		b.Fatal(err)
	}
	in := buildInstr(b, "window.open", "win-1")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Authorize(ctx, "home-1", in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetAuthorizeBatch measures the fleet-wide batch path at a
// realistic mixed-home fan-out.
func BenchmarkFleetAuthorizeBatch(b *testing.B) {
	const homes = 256
	f := fleetForTest(b, Config{Shards: 16, Metrics: obs.NewRegistry()})
	items := make([]BatchItem, homes)
	in := buildInstr(b, "window.open", "win-1")
	snap := legalCtx(b, dataset.ModelWindow)
	for i := 0; i < homes; i++ {
		id := homeID(i)
		mustAddHome(b, f, HomeConfig{ID: id})
		if err := f.PushContext(id, snap); err != nil {
			b.Fatal(err)
		}
		items[i] = BatchItem{Home: id, In: in}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.AuthorizeBatch(ctx, items, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func homeID(i int) string {
	return "home-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + "x"
}
