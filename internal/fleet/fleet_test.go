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
	if want := metricPushDrops + " 2"; !strings.Contains(buf.String(), want) {
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
