package core_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/fleet"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
	"iotsid/internal/trust"
)

// scriptedCollector hands the framework exactly the snapshot and
// provenance the test staged for the next decision.
type scriptedCollector struct {
	snap sensor.Snapshot
	prov core.Provenance
}

func (c *scriptedCollector) Collect(context.Context) (sensor.Snapshot, error) { return c.snap, nil }

func (c *scriptedCollector) CollectDetailed(context.Context) (sensor.Snapshot, core.Provenance, error) {
	return c.snap, c.prov, nil
}

// diffOp is one candidate instruction for the differential stream and
// the device model whose scenes it is staged against ("" outside the six).
type diffOp struct {
	in    instr.Instruction
	model dataset.Model
}

// TestFrameworkFleetDifferential drives one seeded 1,000-instruction
// stream through a single-home core.Framework and a one-home fleet.Fleet
// (one-item AuthorizeBatch calls, the path /v1/fleet/authorize runs) and
// requires the same decision — verdict, sensitivity, model and
// interned reason — for every item. Both sides see the same
// snapshots (the framework through a scripted collector, the fleet
// through pushes), the same clock, their own trust engine fed the same
// observations, and the same trained sequence tables. The framework side
// applies the push-ingest rule (epoch.Ingest) to its scripted snapshot as
// the fleet does to its view. The stream opens with a no-context window
// and a context-free push, and covers mixed legal/attack traffic, a stale
// window, a collapsed-trust window, same-tick sequence chains, and
// windows of out-of-order, null-valued and empty pushes.
func TestFrameworkFleetDifferential(t *testing.T) {
	det, err := core.DefaultDetector()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := dataset.Corpus(dataset.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := core.Train(corpus, dataset.BuildConfig{Seed: 42}, core.TrainConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	models, err := fleet.NewModelRegistry(mem)
	if err != nil {
		t.Fatal(err)
	}
	set, err := seq.Train(seq.TrainConfig{Seed: 7, Models: []dataset.Model{dataset.ModelWindow}})
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func() *trust.Engine {
		// The behavioral fingerprint is effectively off (the stream hops
		// between unrelated scenes by design) and one clean report restores
		// trust, so the invariant table scores alone and low trust is
		// mostly the staged collapse windows.
		e, err := trust.NewEngine(trust.Config{
			BaselineObs: 1, Recovery: 0.9, StuckAfter: 1 << 30,
			CadenceTolerance: 1e9, StepTolerance: 1e9, DriftTolerance: 1e9,
		}, trust.SourceConfig{Name: "push", Required: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	now := time.Date(2021, 4, 1, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	const freshFor = 30 * time.Second

	fl, err := fleet.New(fleet.Config{Detector: det, Models: models, Shards: 1, FreshFor: freshFor, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.AddHome(fleet.HomeConfig{ID: "h", Trust: newEngine(), Sequence: set}); err != nil {
		t.Fatal(err)
	}
	script := &scriptedCollector{}
	fw, err := core.New(core.Config{Detector: det, Collector: script, Memory: mem, Now: clock, Sequence: set})
	if err != nil {
		t.Fatal(err)
	}
	fwTrust := newEngine()

	reg := instr.BuiltinRegistry()
	specs := instr.BuiltinSpecs()
	slices.SortFunc(specs, func(a, b instr.Spec) int { return strings.Compare(a.Op, b.Op) })
	var ops []diffOp
	for _, spec := range specs {
		in, err := reg.Build(spec.Op, "dev-1", instr.OriginUser, nil)
		if err != nil {
			continue // ops that need arguments
		}
		m, _ := dataset.ModelForCategory(in.Category)
		ops = append(ops, diffOp{in: in, model: m})
	}
	windowOpen, err := reg.Build("window.open", "window-1", instr.OriginUser, nil)
	if err != nil {
		t.Fatal(err)
	}
	windowState, err := reg.Build("window.get_state", "window-1", instr.OriginUser, nil)
	if err != nil {
		t.Fatal(err)
	}

	var (
		lastPush  time.Time // fleet receive stamp of the newest accepted push
		newest    time.Time // event time of the newest accepted push
		lastSnap  sensor.Snapshot
		pushed    bool
		items     int
		reasons   = map[string]int{}
		mismatchN int
	)
	// push publishes a snapshot to both sides: the fleet applies the
	// ingest rule itself, the framework side applies it here, keeping the
	// current values on a heartbeat.
	push := func(snap sensor.Snapshot) {
		if err := fl.PushContext("h", snap); err != nil {
			t.Fatal(err)
		}
		at := epoch.EventTime(snap, now)
		fwTrust.Observe("push", snap, at)
		if epoch.Ingest(snap, at, newest) != epoch.Accepted {
			return
		}
		if snap.Len() == 0 {
			kept := lastSnap
			kept.At = snap.At
			snap = kept
		}
		lastPush, newest, lastSnap, pushed = now, at, snap, true
	}
	// decide judges one instruction on both sides and compares.
	decide := func(in instr.Instruction) {
		t.Helper()
		status := core.SourceStatus{Name: "push", Required: true, State: core.SourceFresh}
		switch {
		case !pushed:
			status.State = core.SourceMissing
		case now.Sub(lastPush) > freshFor:
			status.State = core.SourceMissing
			status.Age = now.Sub(lastPush)
		}
		status.LowTrust = !fwTrust.Trusted("push")
		script.snap, script.prov = lastSnap, core.Provenance{status}

		res, err := fl.AuthorizeBatch(context.Background(), []fleet.BatchItem{{Home: "h", In: in}}, 1)
		if err != nil {
			t.Fatalf("item %d: fleet: %v", items, err)
		}
		if res[0].Err != "" {
			t.Fatalf("item %d: fleet: %s", items, res[0].Err)
		}
		want := res[0].Decision
		got, err := fw.Authorize(context.Background(), in)
		if err != nil {
			t.Fatalf("item %d: framework: %v", items, err)
		}
		if got.Allowed != want.Allowed || got.Sensitive != want.Sensitive || got.Model != want.Model || got.Reason != want.Reason {
			if mismatchN < 10 {
				t.Errorf("item %d %s: framework {allowed %v sensitive %v model %q %q}, fleet {allowed %v sensitive %v model %q %q}",
					items, in.Op, got.Allowed, got.Sensitive, got.Model, got.Reason,
					want.Allowed, want.Sensitive, want.Model, want.Reason)
			}
			mismatchN++
		}
		switch {
		case want.Allowed && want.Sensitive:
			reasons["sensitive allow"]++
		case !want.Allowed && want.Explain() != "":
			reasons["tree reject"]++ // only the tree explains a rejection
		default:
			reasons[want.Reason]++
		}
		items++
		now = now.Add(time.Second)
	}
	rng := rand.New(rand.NewSource(2021))
	// mixed runs n random instructions, each pushing a fresh legal or
	// attack scene for its model first.
	mixed := func(n int) {
		for i := 0; i < n; i++ {
			op := ops[rng.Intn(len(ops))]
			m := op.model
			if m == "" {
				m = dataset.Models()[rng.Intn(len(dataset.Models()))]
			}
			scene := dataset.LegalSceneSeeded
			if rng.Intn(2) == 0 {
				scene = dataset.AttackSceneSeeded
			}
			snap, err := scene(m, rng.Int63())
			if err != nil {
				t.Fatal(err)
			}
			snap.At = now
			push(snap)
			decide(op.in)
		}
	}
	// unpushed judges n random instructions without any new context.
	unpushed := func(n int) {
		for i := 0; i < n; i++ {
			decide(ops[rng.Intn(len(ops))].in)
		}
	}
	// chain runs a benign window trace, then a same-tick burst of status
	// reads ending in a sensitive tail.
	chain := func() {
		trace := seq.LegalTrace(rng, 8, 9, 12)
		shift := now.Sub(trace[0].At)
		for _, e := range trace {
			e.At = e.At.Add(shift) // keep event time moving forward
			if e.At.After(now) {
				now = e.At
			}
			push(e.WindowScene())
			if e.Sensitive {
				decide(windowOpen)
			} else {
				decide(windowState)
			}
		}
		last := trace[len(trace)-1]
		now = last.At.Add(shift + 40*time.Second)
		burst := seq.TraceEvent{At: now, Hour: last.Hour, Voice: true, Occupied: last.Occupied}
		for i := 0; i < 3; i++ {
			push(burst.WindowScene())
			decide(windowState)
		}
		burst.Sensitive = true
		push(burst.WindowScene())
		decide(windowOpen)
	}

	// scene draws a legal or attack window scene stamped at.
	scene := func(at time.Time) sensor.Snapshot {
		snap, err := dataset.LegalSceneSeeded(dataset.ModelWindow, rng.Int63())
		if rng.Intn(2) == 0 {
			snap, err = dataset.AttackSceneSeeded(dataset.ModelWindow, rng.Int63())
		}
		if err != nil {
			t.Fatal(err)
		}
		snap.At = at
		return snap
	}
	windows := map[string]int{}
	unpushed(40) // no context yet
	push(sensor.Snapshot{})
	unpushed(10) // an empty scene: sensitive instructions fail closed
	for items < 1000 {
		switch rng.Intn(7) {
		case 0:
			mixed(60)
		case 1:
			now = now.Add(2 * freshFor) // let the pushed view go stale
			unpushed(20)
		case 2:
			for i := 0; i < 2; i++ { // collapse trust, then keep serving
				snap, err := dataset.LegalSceneSeeded(dataset.ModelWindow, rng.Int63())
				if err != nil {
					t.Fatal(err)
				}
				snap.At = now
				snap.Set(sensor.FeatAirQuality, sensor.Number(-1))
				push(snap)
				now = now.Add(time.Second)
			}
			unpushed(15)
		case 3:
			chain()
		case 4: // reordered and replayed pushes behind the view
			windows["out of order"]++
			push(scene(now))
			for i := 0; i < 5; i++ {
				push(scene(newest.Add(-time.Duration(1+rng.Intn(30)) * time.Second)))
				decide(windowOpen)
			}
		case 5: // pushes carrying an absent value
			windows["null"]++
			for i := 0; i < 5; i++ {
				snap := scene(now)
				snap.Set(snap.Features()[rng.Intn(snap.Len())], sensor.Value{})
				push(snap)
				decide(windowOpen)
			}
		case 6: // heartbeats, stamped and not
			windows["empty"]++
			for i := 0; i < 5; i++ {
				empty := sensor.NewSnapshot(now)
				if rng.Intn(2) == 0 {
					empty = sensor.Snapshot{}
				}
				push(empty)
				decide(ops[rng.Intn(len(ops))].in)
			}
		}
	}
	for _, w := range []string{"out of order", "null", "empty"} {
		if windows[w] == 0 {
			t.Errorf("no %s window in %d items", w, items)
		}
	}
	if mismatchN > 0 {
		t.Fatalf("%d of %d decisions differ between framework and fleet", mismatchN, items)
	}
	// The stream must actually reach every stage it claims to cover.
	for _, r := range []string{"sensitive allow", "tree reject",
		core.ReasonMissing, core.ReasonStale, core.ReasonLowTrust, core.ReasonSeqAnomaly} {
		if reasons[r] == 0 {
			t.Errorf("no decision of kind %q in %d items", r, items)
		}
	}
}
