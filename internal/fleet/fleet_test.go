package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/instr"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// trainedMemory caches one trained memory across the test binary.
var trainedMemory *core.FeatureMemory

func memoryForTest(t testing.TB) *core.FeatureMemory {
	t.Helper()
	if trainedMemory != nil {
		return trainedMemory
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fm, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	trainedMemory = fm
	return fm
}

func registryForTest(t testing.TB) *ModelRegistry {
	t.Helper()
	r, err := NewModelRegistry(memoryForTest(t))
	if err != nil {
		t.Fatalf("NewModelRegistry: %v", err)
	}
	return r
}

func detectorForTest(t testing.TB) *core.Detector {
	t.Helper()
	d, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fleetForTest(t testing.TB, cfg Config) *Fleet {
	t.Helper()
	if cfg.Detector == nil {
		cfg.Detector = detectorForTest(t)
	}
	if cfg.Models == nil {
		cfg.Models = registryForTest(t)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func buildInstr(t testing.TB, op, device string) instr.Instruction {
	t.Helper()
	in, err := instr.BuiltinRegistry().Build(op, device, instr.OriginUser, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func legalCtx(t testing.TB, m dataset.Model) sensor.Snapshot {
	t.Helper()
	snap, err := dataset.LegalScene(m, rand.New(rand.NewSource(77)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func attackCtx(t testing.TB, m dataset.Model) sensor.Snapshot {
	t.Helper()
	snap, err := dataset.AttackScene(m, rand.New(rand.NewSource(78)))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// authorizeOne judges one instruction through AuthorizeBatch, the fleet's
// one entry point, as a one-item batch; a per-item error comes back as an
// error.
func authorizeOne(ctx context.Context, f *Fleet, home string, in instr.Instruction) (core.Decision, error) {
	res, err := f.AuthorizeBatch(ctx, []BatchItem{{Home: home, In: in}}, 1)
	if err != nil {
		return core.Decision{}, err
	}
	if res[0].Err != "" {
		return core.Decision{}, errors.New(res[0].Err)
	}
	return res[0].Decision, nil
}

func mustAddHome(t testing.TB, f *Fleet, cfg HomeConfig) *Home {
	t.Helper()
	h, err := f.AddHome(cfg)
	if err != nil {
		t.Fatalf("AddHome(%q): %v", cfg.ID, err)
	}
	return h
}

func TestNewFleetValidation(t *testing.T) {
	reg := registryForTest(t)
	det := detectorForTest(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil detector", Config{Models: reg}, "needs a detector"},
		{"nil models", Config{Detector: det}, "needs a model registry"},
		{"negative shards", Config{Detector: det, Models: reg, Shards: -3}, "shard count"},
		{"huge shards", Config{Detector: det, Models: reg, Shards: 1 << 17}, "shard count"},
		{"negative fresh for", Config{Detector: det, Models: reg, FreshFor: -time.Second}, "negative freshness budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
	f := fleetForTest(t, Config{})
	if got := f.ShardCount(); got != 16 {
		t.Fatalf("default ShardCount = %d, want 16", got)
	}
}

func TestNewModelRegistryValidation(t *testing.T) {
	if _, err := NewModelRegistry(nil); err == nil {
		t.Fatal("NewModelRegistry(nil) succeeded, want error")
	}
}

func TestFleetPushAuthorize(t *testing.T) {
	f := fleetForTest(t, Config{Shards: 4, Metrics: obs.NewRegistry()})
	mustAddHome(t, f, HomeConfig{ID: "home-1"})
	open := buildInstr(t, "window.open", "win-1")

	if err := f.PushContext("home-1", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatalf("PushContext: %v", err)
	}
	dec, err := authorizeOne(context.Background(), f, "home-1", open)
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if !dec.Allowed || !dec.Sensitive || dec.Model != dataset.ModelWindow {
		t.Fatalf("legal scene: got %+v, want allowed sensitive window decision", dec)
	}

	if err := f.PushContext("home-1", attackCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatalf("PushContext: %v", err)
	}
	dec, err = authorizeOne(context.Background(), f, "home-1", open)
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if dec.Allowed {
		t.Fatalf("attack scene: got %+v, want rejection", dec)
	}
	if dec.Explain() == "" {
		t.Fatal("rejection carries no explanation")
	}

	h, _ := f.Home("home-1")
	if pushes, got := f.metrics.pushes.Value(), len(h.stage.Log()); pushes != 2 || got != 2 {
		t.Fatalf("home counters = %d pushes / %d decisions, want 2/2", pushes, got)
	}
}

func TestFleetNonSensitiveWithoutContext(t *testing.T) {
	f := fleetForTest(t, Config{})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	dec, err := authorizeOne(context.Background(), f, "h", buildInstr(t, "light.get_state", "lamp-1"))
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if !dec.Allowed || dec.Sensitive {
		t.Fatalf("status op without context: got %+v, want non-sensitive allow", dec)
	}
}

func TestFleetFailClosedNoContext(t *testing.T) {
	f := fleetForTest(t, Config{})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	dec, err := authorizeOne(context.Background(), f, "h", buildInstr(t, "window.open", "win-1"))
	if err != nil {
		t.Fatalf("Authorize: %v", err)
	}
	if dec.Allowed || !dec.Sensitive || dec.Reason != core.ReasonMissing {
		t.Fatalf("sensitive op without context: got %+v, want fail-closed rejection", dec)
	}
}

func TestFleetFailClosedStaleContext(t *testing.T) {
	now := time.Unix(1000, 0)
	f := fleetForTest(t, Config{
		FreshFor: time.Minute,
		Now:      func() time.Time { return now },
	})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	if err := f.PushContext("h", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	open := buildInstr(t, "window.open", "win-1")

	now = now.Add(59 * time.Second)
	dec, err := authorizeOne(context.Background(), f, "h", open)
	if err != nil {
		t.Fatalf("Authorize (fresh): %v", err)
	}
	if !dec.Allowed {
		t.Fatalf("within budget: got %+v, want allow", dec)
	}

	now = now.Add(2 * time.Minute)
	dec, err = authorizeOne(context.Background(), f, "h", open)
	if err != nil {
		t.Fatalf("Authorize (stale): %v", err)
	}
	if dec.Allowed || dec.Reason != core.ReasonStale {
		t.Fatalf("beyond budget: got %+v, want stale fail-closed rejection", dec)
	}

	// Non-sensitive instructions still judge on the stale view.
	dec, err = authorizeOne(context.Background(), f, "h", buildInstr(t, "light.get_state", "lamp-1"))
	if err != nil {
		t.Fatalf("Authorize (non-sensitive, stale): %v", err)
	}
	if !dec.Allowed {
		t.Fatalf("non-sensitive on stale view: got %+v, want allow", dec)
	}
}

func TestFleetUnknownHome(t *testing.T) {
	f := fleetForTest(t, Config{})
	if _, err := authorizeOne(context.Background(), f, "ghost", buildInstr(t, "window.open", "w")); err == nil {
		t.Fatal("Authorize on unknown home succeeded")
	}
	if err := f.PushContext("ghost", sensor.Snapshot{}); err == nil {
		t.Fatal("PushContext on unknown home succeeded")
	}
}

func TestFleetAuthorizeCancelledContext(t *testing.T) {
	f := fleetForTest(t, Config{})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.AuthorizeBatch(ctx, []BatchItem{{Home: "h", In: buildInstr(t, "light.get_state", "l")}}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("AuthorizeBatch with cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestFleetHomeLifecycle(t *testing.T) {
	f := fleetForTest(t, Config{})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	if _, err := f.AddHome(HomeConfig{ID: "h"}); err == nil {
		t.Fatal("duplicate AddHome succeeded")
	}
	if _, err := f.AddHome(HomeConfig{}); err == nil {
		t.Fatal("empty-ID AddHome succeeded")
	}
	if f.HomeCount() != 1 {
		t.Fatalf("HomeCount = %d, want 1", f.HomeCount())
	}
}

func TestFleetHomeLogRing(t *testing.T) {
	const n = homeLogCapacity + 6
	f := fleetForTest(t, Config{})
	h := mustAddHome(t, f, HomeConfig{ID: "h"})
	if err := f.PushContext("h", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := authorizeOne(context.Background(), f, "h", buildInstr(t, "window.open", fmt.Sprintf("w-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	log := h.stage.Log()
	if len(log) != homeLogCapacity {
		t.Fatalf("ring log retained %d entries, want %d", len(log), homeLogCapacity)
	}
	if first, last := log[0].Seq, log[len(log)-1].Seq; first != 7 || last != n {
		t.Fatalf("ring log kept seqs %d..%d, want 7..%d", first, last, n)
	}
	if got, want := log[len(log)-1].DeviceID, fmt.Sprintf("w-%d", n-1); got != want {
		t.Fatalf("newest entry device = %q, want %s", got, want)
	}
	if tail := log[len(log)-2:]; tail[0].Seq != n-1 || tail[1].Seq != n {
		t.Fatalf("log tail = %+v, want the newest two", tail)
	}
}

func TestFleetBatchTenantIsolation(t *testing.T) {
	f := fleetForTest(t, Config{Shards: 4})
	mustAddHome(t, f, HomeConfig{ID: "a"})
	mustAddHome(t, f, HomeConfig{ID: "b"})
	legal := legalCtx(t, dataset.ModelWindow)
	attack := attackCtx(t, dataset.ModelWindow)
	items := []BatchItem{
		{Home: "a", In: buildInstr(t, "window.open", "w"), Context: &legal},
		{Home: "ghost", In: buildInstr(t, "window.open", "w")},
		{Home: "b", In: buildInstr(t, "window.open", "w"), Context: &attack},
		{Home: "b", In: buildInstr(t, "light.get_state", "l")},
	}
	out, err := f.AuthorizeBatch(context.Background(), items, 2)
	if err != nil {
		t.Fatalf("AuthorizeBatch: %v", err)
	}
	if len(out) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(out))
	}
	if !out[0].Decision.Allowed || out[0].Err != "" {
		t.Fatalf("item 0 (legal): %+v", out[0])
	}
	if out[1].Err == "" || !strings.Contains(out[1].Err, "unknown home") {
		t.Fatalf("item 1 (ghost) should carry a per-item error, got %+v", out[1])
	}
	if out[2].Decision.Allowed || out[2].Err != "" {
		t.Fatalf("item 2 (attack): %+v", out[2])
	}
	if !out[3].Decision.Allowed {
		t.Fatalf("item 3 (status): %+v", out[3])
	}
	if out, err := f.AuthorizeBatch(context.Background(), nil, 2); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", out, err)
	}
}

func TestFleetSharedModelRegistry(t *testing.T) {
	fm := memoryForTest(t)
	reg := registryForTest(t)
	f := fleetForTest(t, Config{Models: reg, Shards: 8})
	for i := 0; i < 500; i++ {
		mustAddHome(t, f, HomeConfig{ID: fmt.Sprintf("home-%03d", i)})
	}
	// The registry holds exactly one compiled tree per device model no
	// matter how many homes share it.
	if got, want := len(f.Registry().Models()), len(fm.Models()); got != want {
		t.Fatalf("registry holds %d models for 500 homes, want %d", got, want)
	}
	for _, m := range fm.Models() {
		memEntry, ok := fm.Entry(m)
		if !ok {
			t.Fatalf("memory lost entry for %s", m)
		}
		regEntry, ok := f.Registry().Entry(m)
		if !ok {
			t.Fatalf("registry missing entry for %s", m)
		}
		if memEntry != regEntry {
			t.Fatalf("registry cloned the %s entry instead of sharing it", m)
		}
		if memEntry.Compiled() != regEntry.Compiled() {
			t.Fatalf("registry compiled tree for %s is not the shared one", m)
		}
	}
}

func TestModelRegistrySwap(t *testing.T) {
	reg := registryForTest(t)
	if err := reg.Swap(dataset.ModelWindow, nil); err == nil {
		t.Fatal("Swap(nil) succeeded")
	}
	e, _ := reg.Entry(dataset.ModelTV)
	if err := reg.Swap(dataset.ModelWindow, e); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	got, ok := reg.Entry(dataset.ModelWindow)
	if !ok || got != e {
		t.Fatal("Swap did not publish the new entry")
	}
	if _, err := reg.Judge(dataset.Model("toaster"), sensor.Snapshot{}); err == nil {
		t.Fatal("Judge on unknown model succeeded")
	}
}

func TestFleetMetrics(t *testing.T) {
	mreg := obs.NewRegistry()
	f := fleetForTest(t, Config{
		Shards:  2,
		Metrics: mreg,
	})
	mustAddHome(t, f, HomeConfig{ID: "first"})
	mustAddHome(t, f, HomeConfig{ID: "second"})
	if err := f.PushContext("first", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	if _, err := authorizeOne(context.Background(), f, "first", buildInstr(t, "window.open", "w")); err != nil {
		t.Fatal(err)
	}
	if _, err := authorizeOne(context.Background(), f, "second", buildInstr(t, "window.open", "w")); err != nil {
		t.Fatal(err)
	}
	legal := legalCtx(t, dataset.ModelWindow)
	if _, err := f.AuthorizeBatch(context.Background(), []BatchItem{
		{Home: "first", In: buildInstr(t, "window.open", "w"), Context: &legal},
	}, 1); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := mreg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		metricHomes + " 2",
		metricPushes + " 2",  // one explicit push + one batch-carried push
		metricBatches + " 3", // two one-item batches + one batch
		metricBatchItems + " 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `outcome="allow"`) || !strings.Contains(text, `outcome="fail_closed"`) {
		t.Errorf("decision outcomes not labeled:\n%s", text)
	}
}

func TestFleetWithoutMetricsIsNilSafe(t *testing.T) {
	f := fleetForTest(t, Config{})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	if err := f.PushContext("h", legalCtx(t, dataset.ModelWindow)); err != nil {
		t.Fatal(err)
	}
	if _, err := authorizeOne(context.Background(), f, "h", buildInstr(t, "window.open", "w")); err != nil {
		t.Fatal(err)
	}
}

func TestJumpHashProperties(t *testing.T) {
	// Uniform-ish spread over shards.
	counts := make([]int, 16)
	for i := 0; i < 16000; i++ {
		counts[jumpHash(fnv64a(fmt.Sprintf("home-%d", i)), 16)]++
	}
	for s, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("shard %d got %d of 16000 keys — spread far from uniform", s, c)
		}
	}
	// Minimal movement: growing 16 → 17 shards must move roughly 1/17 of
	// keys; anything near a full reshuffle means the hash is broken.
	moved := 0
	for i := 0; i < 16000; i++ {
		k := fnv64a(fmt.Sprintf("home-%d", i))
		if jumpHash(k, 16) != jumpHash(k, 17) {
			moved++
		}
	}
	if moved > 16000/17*3 {
		t.Fatalf("%d of 16000 keys moved when shards grew 16→17, want ~%d", moved, 16000/17)
	}
}

// TestFleetKeepsNoneOfTheCallersSnapshot: a push is copied into the
// home's view, so a Set on the pushed snapshot afterwards, whether it came
// through PushContext or inline with a batch item, changes neither the
// view nor a decision. Such a change would skip the ingest rule and the
// trust engine both.
func TestFleetKeepsNoneOfTheCallersSnapshot(t *testing.T) {
	f := fleetForTest(t, Config{})
	h := mustAddHome(t, f, HomeConfig{ID: "h"})
	open := buildInstr(t, "window.open", "win-1")
	judge := func() string {
		t.Helper()
		dec, err := authorizeOne(context.Background(), f, "h", open)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v %s", dec, dec.Explain())
	}
	pushed := legalCtx(t, dataset.ModelWindow)
	inline := attackCtx(t, dataset.ModelWindow)
	for _, push := range []func(*sensor.Snapshot){
		func(s *sensor.Snapshot) {
			if err := f.PushContext("h", *s); err != nil {
				t.Fatal(err)
			}
		},
		func(s *sensor.Snapshot) {
			if _, err := f.AuthorizeBatch(context.Background(), []BatchItem{{Home: "h", In: open, Context: s}}, 1); err != nil {
				t.Fatal(err)
			}
		},
	} {
		for _, snap := range []sensor.Snapshot{pushed, inline} {
			snap = snap.Clone()
			aq, ok := snap.Number(sensor.FeatAirQuality)
			if !ok {
				t.Fatal("the window scene carries no air quality")
			}
			push(&snap)
			values, decision := sceneValues(t, h.view.Load().snap), judge()
			alias := snap // a copy shares the caller's values
			alias.Set(sensor.FeatAirQuality, sensor.Number(aq+123))
			snap.Delete(sensor.FeatTempIndoor)
			if got := sceneValues(t, h.view.Load().snap); got != values {
				t.Fatalf("the caller's Set and Delete after the push rewrote the home's view:\n got  %s\n want %s", got, values)
			}
			if got := judge(); got != decision {
				t.Fatalf("the caller's Set and Delete after the push changed the decision:\n got  %s\n want %s", got, decision)
			}
		}
	}
}

// TestFleetDropsOutOfOrderPush: a push whose event time is behind the
// home's view — reordered by two gateway connections, or replayed — is
// dropped and counted, and a sensitive instruction is judged on the newer
// view, whether the old push came alone or inline with a batch item.
func TestFleetDropsOutOfOrderPush(t *testing.T) {
	mreg := obs.NewRegistry()
	f := fleetForTest(t, Config{Metrics: mreg})
	mustAddHome(t, f, HomeConfig{ID: "h"})
	newer, older := legalCtx(t, dataset.ModelWindow), attackCtx(t, dataset.ModelWindow)
	t1 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	older.At, newer.At = t1, t1.Add(time.Minute)
	for _, snap := range []sensor.Snapshot{newer, older} {
		if err := f.PushContext("h", snap); err != nil {
			t.Fatal(err)
		}
	}
	open := buildInstr(t, "window.open", "w")
	dec, err := authorizeOne(context.Background(), f, "h", open)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed {
		t.Fatalf("judged on the older push: %+v", dec)
	}
	res, err := f.AuthorizeBatch(context.Background(), []BatchItem{{Home: "h", In: open, Context: &older}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Decision.Allowed {
		t.Fatalf("batch item judged on its dropped inline push: %+v", res[0])
	}
	// A push at the view's own event time is not behind it.
	if err := f.PushContext("h", newer); err != nil {
		t.Fatal(err)
	}
	if got := f.metrics.pushes.Value(); got != 2 {
		t.Fatalf("home accepted %d pushes, want 2", got)
	}
	var buf strings.Builder
	if err := mreg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if want := metricPushDrops + `{reason="out_of_order"} 2`; !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics exposition missing %q:\n%s", want, buf.String())
	}
}

// TestFleetDroppedPushStillScoresTrust: a replayed push is dropped from the
// view but still reaches the trust engine, so replaying context keeps
// costing the source trust.
func TestFleetDroppedPushStillScoresTrust(t *testing.T) {
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	eng, err := trust.NewEngine(trust.Config{}, trust.SourceConfig{Name: "push", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	h := mustAddHome(t, f, HomeConfig{ID: "h", Trust: eng})
	snap := legalCtx(t, dataset.ModelWindow)
	t0 := snap.At
	for k := 0; k < 3; k++ {
		snap.At = t0.Add(-time.Duration(k) * 5 * time.Second)
		if err := f.PushContext("h", snap); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.metrics.pushes.Value(); got != 1 {
		t.Fatalf("home accepted %d pushes, want 1", got)
	}
	if !h.LowTrust() {
		t.Fatalf("replayed pushes left trust at %.2f, want below threshold", h.trust.ScoreIdx(0))
	}
}

// TestFleetTrustedHomeStateBoundedByVocabulary: a trusted home's state
// stops growing once it has seen the vocabulary. Scenes carrying every
// feature, pushed 2,000 times with fresh values, leave the live heap
// where the first 100 left it: the trust engine keeps one slot per
// vocabulary ordinal and the view replaces the scene it held.
func TestFleetTrustedHomeStateBoundedByVocabulary(t *testing.T) {
	f := fleetForTest(t, Config{})
	eng, err := trust.NewEngine(trust.Config{}, trust.SourceConfig{Name: "push", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAddHome(t, f, HomeConfig{ID: "h", Trust: eng})
	rng := rand.New(rand.NewSource(5))
	t0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	push := func(k int) {
		snap := sensor.NewSnapshotCap(t0.Add(time.Duration(k)*time.Second), sensor.NumFeatures)
		for g := sensor.Feature(1); g < sensor.FeatureLimit; g++ {
			d := sensor.MustDescribe(g)
			switch d.Type {
			case sensor.TypeBool:
				snap.Set(g, sensor.Bool(rng.Intn(2) == 0))
			case sensor.TypeNumber:
				snap.Set(g, sensor.Number(rng.Float64()))
			default:
				snap.Set(g, sensor.Label(d.Labels[rng.Intn(len(d.Labels))]))
			}
		}
		if err := f.PushContext("h", snap); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 100; k++ {
		push(k)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 100; k < 2000; k++ {
		push(k)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 64<<10 {
		t.Fatalf("1,900 more full-vocabulary pushes grew the live heap by %d B, want at most 64 KiB", grown)
	}
}

// TestAuthorizeBatchIntoSkipsPresetResults: an item whose result the
// caller already set is not there. Its scene is not pushed and it is not
// judged, logged or counted, its result is left as it was, and a batch of
// only such items is not counted as a batch, even once its context has
// ended.
func TestAuthorizeBatchIntoSkipsPresetResults(t *testing.T) {
	f := fleetForTest(t, Config{Metrics: obs.NewRegistry()})
	skipped := mustAddHome(t, f, HomeConfig{ID: "skipped"})
	judged := mustAddHome(t, f, HomeConfig{ID: "judged"})
	rng := rand.New(rand.NewSource(5))
	legal, err := dataset.LegalScene(dataset.ModelWindow, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PushContext("skipped", legal); err != nil {
		t.Fatal(err)
	}
	view, pushes := sceneValues(t, skipped.view.Load().snap), f.metrics.pushes.Value()
	attack, err := dataset.AttackScene(dataset.ModelWindow, rng)
	if err != nil {
		t.Fatal(err)
	}
	open := buildInstr(t, "window.open", "win-1")
	items := []BatchItem{
		{Home: "skipped", In: open, Context: &attack},
		{Home: "judged", In: open, Context: &legal},
		{Home: "skipped", In: open},
	}
	preset := BatchResult{Err: "rejected by the caller"}
	out := []BatchResult{preset, {}, preset}
	if err := f.AuthorizeBatchInto(context.Background(), items, out, 1); err != nil {
		t.Fatal(err)
	}
	if out[0] != preset || out[2] != preset {
		t.Fatalf("preset results = %+v, %+v; want them left as %+v", out[0], out[2], preset)
	}
	if out[1].Err != "" || !out[1].Decision.Allowed {
		t.Fatalf("the item beside them = %+v, want judged and allowed", out[1])
	}
	if kept := sceneValues(t, skipped.view.Load().snap); kept != view || len(skipped.stage.Log()) != 0 || len(judged.stage.Log()) != 1 {
		t.Fatalf("skipped home's view rewritten %v, %d logged; judged home %d logged; want the view kept, 0 and 1",
			kept != view, len(skipped.stage.Log()), len(judged.stage.Log()))
	}
	m := f.metrics
	if got := m.pushes.Value() - pushes; got != 1 {
		t.Fatalf("batch counted %d pushes, want 1", got)
	}
	if m.batches.Value() != 1 || m.batchItems.Value() != 1 {
		t.Fatalf("counted %d batches of %d items, want 1 of 1", m.batches.Value(), m.batchItems.Value())
	}
	var decided uint64
	for _, shard := range m.decisions {
		for _, c := range shard {
			decided += c.Value()
		}
	}
	if decided != 1 {
		t.Fatalf("counted %d decisions, want 1", decided)
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	out = []BatchResult{preset, preset, preset}
	if err := f.AuthorizeBatchInto(ended, items, out, 1); err != nil {
		t.Fatalf("a batch of preset results = %v, want nil", err)
	}
	if m.batches.Value() != 1 || len(skipped.stage.Log())+len(judged.stage.Log()) != 1 {
		t.Fatal("a batch of preset results was counted or judged")
	}
}
