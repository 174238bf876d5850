package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// authorizeItem runs what AuthorizeBatch runs for one item without inline
// context: the shard-map lookup, then authorizeHome.
func authorizeItem(t testing.TB, f *Fleet, id string, in instr.Instruction) core.Decision {
	h, ok := f.Home(id)
	if !ok {
		t.Fatalf("unknown home %q", id)
	}
	return f.authorizeHome(h, in)
}

// TestFleetAuthorizeSteadyStateAllocs is the fleet's perf contract: once a
// home has pushed fresh context, each batch item is a shard-map lookup and
// authorizeHome — an atomic view load, the shared registry's pooled judge,
// a ring append, and counter increments — zero heap allocations, with
// metrics enabled.
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

	// Warm: intern reasons, fill the feature-buffer pool.
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
		t.Fatalf("steady-state fleet authorizeHome allocates %.1f/op, want 0", allocs)
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
	for i := 0; i < 3; i++ {
		authorizeItem(t, f, "cold", in)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec := authorizeItem(t, f, "cold", in)
		if dec.Allowed {
			t.Fatalf("cold home allowed a sensitive op: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("fail-closed fleet authorizeHome allocates %.1f/op, want 0", allocs)
	}
}

// TestFleetIncompleteSceneFailClosedAllocs: a sensitive instruction on a
// scene that lacks a feature its model reads fails closed as missing
// context, is logged and counted, and allocates nothing — a tenant can
// repeat it at will.
func TestFleetIncompleteSceneFailClosedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	scene := legalCtx(t, dataset.ModelWindow)
	scene.Delete(sensor.FeatAirQuality)
	if err := f.PushContext("h", scene); err != nil {
		t.Fatal(err)
	}
	in := buildInstr(t, "window.open", "win-1")
	for i := 0; i < 3; i++ {
		authorizeItem(t, f, "h", in)
	}
	allocs := testing.AllocsPerRun(200, func() {
		dec := authorizeItem(t, f, "h", in)
		if dec.Allowed || !dec.Sensitive || dec.Reason != core.ReasonMissing {
			t.Fatalf("incomplete scene decided %+v, want a fail-closed missing-context rejection", dec)
		}
	})
	if allocs != 0 {
		t.Fatalf("incomplete-scene fail-closed authorizeHome allocates %.1f/op, want 0", allocs)
	}
}

// TestFleetPushAllocs: once a home has its view, no push allocates. A push
// the ingest rule drops, out of order or null valued, is only counted; an
// accepted push is copied into the view's own entries and a heartbeat
// restamps the view, also when scenes of different widths alternate.
func TestFleetPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	now := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry(), Now: func() time.Time { return now }})
	h := mustAddHome(t, f, HomeConfig{ID: "h"})
	scene := legalCtx(t, dataset.ModelWindow)
	scene.At = time.Time{} // stamped on receipt, so each push is the newest
	old := scene
	old.At = now.Add(-time.Hour)
	null := scene.Clone()
	null.Set(sensor.FeatAirQuality, sensor.Value{})
	kitchen := legalCtx(t, dataset.ModelKitchen)
	kitchen.At = time.Time{}
	if kitchen.Len() == scene.Len() {
		t.Fatalf("the kitchen and window scenes both carry %d features, want two widths", scene.Len())
	}
	f.push(h, kitchen)
	pushes := f.metrics.pushes.Value()
	for _, tc := range []struct {
		name string
		push []sensor.Snapshot
	}{
		{"accepted", []sensor.Snapshot{scene}},
		{"heartbeat", []sensor.Snapshot{{}}},
		{"alternating widths", []sensor.Snapshot{scene, kitchen}},
		{"out of order", []sensor.Snapshot{old}},
		{"null value", []sensor.Snapshot{null}},
	} {
		f.push(h, scene)
		n := 0
		allocs := testing.AllocsPerRun(200, func() {
			now = now.Add(time.Second)
			f.push(h, tc.push[n%len(tc.push)])
			n++
		})
		if allocs != 0 {
			t.Errorf("%s push allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
	if got := f.metrics.pushes.Value() - pushes; got < 3*201+5 {
		t.Errorf("%d pushes accepted, want at least %d", got, 3*201+5)
	}
	if got := f.metrics.pushDrops[epoch.OutOfOrder].Value(); got < 200 {
		t.Errorf("%d out-of-order drops counted, want at least 200", got)
	}
	if got := f.metrics.pushDrops[epoch.NullValue].Value(); got < 200 {
		t.Errorf("%d null-value drops counted, want at least 200", got)
	}
}

// TestHomeSize pins a home's fixed state at 208 B: a fleet keeps one per
// tenant, so per-home bytes are what move its setup heap.
func TestHomeSize(t *testing.T) {
	if got := unsafe.Sizeof(Home{}); got > 208 {
		t.Fatalf("Home is %d B, want <= 208", got)
	}
}

// TestFleetSteadyStateHeapPerHome bounds what a home costs once its ring
// has wrapped: the home, its pipeline, its view with the entries of the
// widest scene it was pushed, and a full ring of decisions over the load
// generator's op/device mix. The op strings are shared by every home, as
// the wire decoder resolves an op to the registry's string; each device
// ID is copied per request, as the handler copies one its home's ring does
// not hold yet, so a ring keeps its own copy. About 2,710 B per home: a
// view keeps its widest scene's entries, 16 B each.
func TestFleetSteadyStateHeapPerHome(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not meaningful under the race detector")
	}
	const homes = 2000
	mix := []struct {
		op, device string
		model      dataset.Model
	}{
		{"window.open", "win-1", dataset.ModelWindow},
		{"aircon.on", "ac-1", dataset.ModelAircon},
		{"light.on", "lamp-1", dataset.ModelLight},
		{"curtain.open", "cur-1", dataset.ModelCurtain},
		{"tv.on", "tv-1", dataset.ModelTV},
		{"cooker.start", "rc-1", dataset.ModelKitchen},
		{"light.get_state", "lamp-1", ""},
	}
	scenes := make(map[dataset.Model]sensor.Snapshot)
	for _, m := range dataset.Models() {
		scenes[m] = legalCtx(t, m)
	}
	reg := instr.BuiltinRegistry()
	ids := make([]string, homes)
	for i := range ids {
		ids[i] = fmt.Sprintf("home-%06d", i)
	}
	f := fleetForTest(t, Config{})
	rng := rand.New(rand.NewSource(1))
	items := make([]BatchItem, 0, 256)
	flush := func() {
		if _, err := f.AuthorizeBatch(context.Background(), items, 1); err != nil {
			t.Fatal(err)
		}
		clear(items)
		items = items[:0]
	}

	runtime.GC()
	before := heapAlloc()
	for _, id := range ids {
		mustAddHome(t, f, HomeConfig{ID: id})
	}
	for step := 0; step < homeLogCapacity+8; step++ {
		for _, id := range ids {
			s := mix[len(mix)-1] // 30 % status reads, 70 % sensitive
			if rng.Float64() < 0.7 {
				s = mix[rng.Intn(len(mix)-1)]
			}
			in, err := reg.Build(s.op, strings.Clone(s.device), instr.OriginUser, nil)
			if err != nil {
				t.Fatal(err)
			}
			it := BatchItem{Home: id, In: in}
			if s.model != "" {
				snap := scenes[s.model].Clone()
				it.Context = &snap
			}
			if items = append(items, it); len(items) == cap(items) {
				flush()
			}
		}
	}
	flush()
	runtime.GC()
	perHome := (heapAlloc() - before) / homes
	runtime.KeepAlive(f)
	t.Logf("%.0f B live heap per home", perHome)
	if perHome > 2800 {
		t.Fatalf("a home with a full ring holds %.0f B of live heap, want <= 2800", perHome)
	}
}

func heapAlloc() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkFleetAuthorize measures the steady-state per-item hot path,
// authorizeHome.
func BenchmarkFleetAuthorize(b *testing.B) {
	f := fleetForTest(b, Config{Shards: 16, Metrics: obs.NewRegistry()})
	mustAddHome(b, f, HomeConfig{ID: "home-1"})
	if err := f.PushContext("home-1", legalCtx(b, dataset.ModelWindow)); err != nil {
		b.Fatal(err)
	}
	in := buildInstr(b, "window.open", "win-1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		authorizeItem(b, f, "home-1", in)
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

// TestHomeDeviceID: a device ID a home was judged on resolves to the
// string its ring holds, without allocating; one new to the home is a
// copy of its own. LookupHome finds a home by its ID's bytes.
func TestHomeDeviceID(t *testing.T) {
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	mustAddHome(t, f, HomeConfig{ID: "other"})
	dev := strings.Clone("win-1")
	authorizeItem(t, f, "h", buildInstr(t, "window.open", dev))
	h, ok := f.LookupHome([]byte("h"))
	if !ok || h.ID() != "h" {
		t.Fatalf("LookupHome(h) = %v, %v", h, ok)
	}
	if _, ok := f.LookupHome([]byte("ghost")); ok {
		t.Fatal("LookupHome found an unregistered home")
	}
	other, _ := f.LookupHome([]byte("other"))
	id := []byte("win-1")
	if got := h.DeviceID(id); unsafe.StringData(got) != unsafe.StringData(dev) {
		t.Fatalf("DeviceID(win-1) = %q, a copy; want the ring's own string", got)
	}
	copied := other.DeviceID(id)
	if unsafe.StringData(copied) == unsafe.StringData(dev) {
		t.Fatal("a home that never logged win-1 resolved it to another home's string")
	}
	id[0] = 'W'
	if copied != "win-1" {
		t.Fatalf("DeviceID returned a view of its argument: %q", copied)
	}
	if raceEnabled {
		return
	}
	b := []byte("win-1")
	if allocs := testing.AllocsPerRun(100, func() {
		f.LookupHome([]byte("h"))
		h.DeviceID(b)
	}); allocs != 0 {
		t.Fatalf("looking up a home and a logged device ID allocates %.1f times, want 0", allocs)
	}
}
