package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// randomSnapshot draws a snapshot over the model's feature vocabulary:
// booleans fair-coin, labels uniform over their domain, numerics over a
// range wide enough to straddle every threshold the trees learned.
func randomSnapshot(t *testing.T, m dataset.Model, rng *rand.Rand) sensor.Snapshot {
	t.Helper()
	snap := sensor.NewSnapshot(sensorTime())
	for _, f := range m.Features() {
		d, ok := sensor.Describe(f)
		if !ok {
			t.Fatalf("feature %q not in vocabulary", f)
		}
		switch d.Type {
		case sensor.TypeBool:
			snap.Set(f, sensor.Bool(rng.Intn(2) == 1))
		case sensor.TypeLabel:
			snap.Set(f, sensor.Label(d.Labels[rng.Intn(len(d.Labels))]))
		default:
			snap.Set(f, sensor.Number(rng.Float64()*10040-40))
		}
	}
	return snap
}

// TestCompiledAgreesWithTreeOnAllModels is the fast-path equivalence
// property: for every trained model, the compiled tree, the explaining
// tree, and the pooled Judge path all decide identically on random, legal
// and attack snapshots (>10k probes across the six models).
func TestCompiledAgreesWithTreeOnAllModels(t *testing.T) {
	fm := memoryForTest(t)
	rng := rand.New(rand.NewSource(2025))
	const perModel = 2000
	for _, m := range fm.Models() {
		e, ok := fm.Entry(m)
		if !ok {
			t.Fatalf("no entry for %s", m)
		}
		c := e.Compiled()
		if c == nil {
			t.Fatalf("%s: entry has no compiled tree", m)
		}
		if c.Width() != len(m.Features()) {
			t.Fatalf("%s: compiled width %d, model width %d", m, c.Width(), len(m.Features()))
		}
		for i := 0; i < perModel; i++ {
			var snap sensor.Snapshot
			var err error
			switch i % 3 {
			case 0:
				snap, err = dataset.LegalScene(m, rng)
			case 1:
				snap, err = dataset.AttackScene(m, rng)
			default:
				snap = randomSnapshot(t, m, rng)
			}
			if err != nil {
				t.Fatal(err)
			}
			x, err := m.Featurize(snap)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Tree.Predict(x)
			if got := c.Label(c.Leaf(x)); got != want {
				t.Fatalf("%s probe %d: compiled = %d, tree = %d (x = %v)", m, i, got, want, x)
			}
			leaf := c.Leaf(x)
			wantPath, err := e.Tree.ExplainString(x)
			if err != nil {
				t.Fatal(err)
			}
			if gotPath, err := e.Tree.ExplainLeaf(int(leaf)); err != nil || gotPath != wantPath {
				t.Fatalf("%s probe %d: leaf %d renders %q (%v), tree walk %q", m, i, leaf, gotPath, err, wantPath)
			}
			legal, err := fm.Judge(m, snap)
			if err != nil {
				t.Fatal(err)
			}
			if legal != (want == 1) {
				t.Fatalf("%s probe %d: Judge = %v, tree class = %d", m, i, legal, want)
			}
		}
	}
}

// TestCompileSaveLoadCompileRoundTrip proves compile → JSON save → load →
// compile preserves every decision.
func TestCompileSaveLoadCompileRoundTrip(t *testing.T) {
	fm := memoryForTest(t)
	var buf bytes.Buffer
	if err := fm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for _, m := range fm.Models() {
		orig, _ := fm.Entry(m)
		loaded, ok := back.Entry(m)
		if !ok {
			t.Fatalf("loaded memory missing %s", m)
		}
		lc := loaded.Compiled()
		if lc == nil {
			t.Fatalf("%s: loaded entry not compiled", m)
		}
		if loaded.Tree.NodeCount() != orig.Tree.NodeCount() {
			t.Fatalf("%s: node count diverged after round trip", m)
		}
		for i := 0; i < 500; i++ {
			snap := randomSnapshot(t, m, rng)
			x, err := m.Featurize(snap)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := lc.Label(lc.Leaf(x)), orig.Compiled().Label(orig.Compiled().Leaf(x)); got != want {
				t.Fatalf("%s probe %d: reloaded = %d, original = %d", m, i, got, want)
			}
		}
	}
}

// TestJudgeSteadyStateAllocs asserts the 0 allocs/op acceptance criterion
// in-process (the benchmark records the number; this keeps it from
// regressing silently in plain `go test`). A deny allocates no more than an
// allow: it records the tree's leaf, and the explanation is rendered only
// when someone reads it.
func TestJudgeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fm := memoryForTest(t)
	j, err := NewJudger(detectorForTest(t), fm)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(PipelineConfig{Judger: j, LogCapacity: 64})
	open := buildInstr(t, "window.open", "window-1")
	legal, attack := legalCtx(t, dataset.ModelWindow), attackCtx(t, dataset.ModelWindow)
	cases := []struct {
		name    string
		allowed bool
		judge   func() (Decision, error)
	}{
		{"model store allow", true, func() (Decision, error) {
			ok, err := fm.Judge(dataset.ModelWindow, legal)
			return Decision{Allowed: ok}, err
		}},
		{"allow", true, func() (Decision, error) { return j.Judge(open, legal) }},
		{"tree deny", false, func() (Decision, error) { return j.Judge(open, attack) }},
		{"pipeline tree deny", false, func() (Decision, error) { return p.Decide(open, attack, ContextOK, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The first call warms the buffer pool and the reason table.
			dec, err := tc.judge()
			if err != nil {
				t.Fatal(err)
			}
			if dec.Allowed != tc.allowed {
				t.Fatalf("allowed = %v, want %v", dec.Allowed, tc.allowed)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := tc.judge(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady state allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
	if n := len(p.Log()); n == 0 {
		t.Error("the pipeline case logged nothing")
	}
}

// TestRingSlotSize pins a decision-ring slot at 24 B: a fleet keeps one
// ring per home, so every byte here is multiplied by homes × capacity.
func TestRingSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(logSlot{}); got > 24 {
		t.Errorf("ring slot is %d B, want at most 24", got)
	}
}

// TestRingSlotHasNoPointers walks the slot type: a pointer-free slot lets
// the runtime allocate each ring noscan and lets the strings a request
// decoded die with the request.
func TestRingSlotHasNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: a ring slot must hold no pointers", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("logSlot", reflect.TypeOf(logSlot{}))
}

// TestJudgerReasonsFillIsLinear: interning reasons for reasonCap distinct
// opcodes, each looked up twice, publishes a new copy of the reason map
// only as often as the opcodes waiting for one, plus the lookups they
// served, pass the published map's size. So the bytes the fill allocates
// grow linearly in the cap; a map copied for every new opcode allocated
// about 4096²/2 entries' worth, some hundreds of MB.
func TestJudgerReasonsFillIsLinear(t *testing.T) {
	ops := make([]string, reasonCap)
	for i := range ops {
		ops[i] = fmt.Sprintf("op.%06d", i)
	}
	var j Judger
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, op := range ops {
		j.reasonsFor(op)
		j.reasonsFor(op)
	}
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 8<<20 {
		t.Fatalf("interning %d opcodes allocated %d B, want at most 8 MiB", reasonCap, b)
	}
	if n := len(*j.reasons.Load()); n != reasonCap {
		t.Fatalf("published reasons cover %d opcodes, want %d", n, reasonCap)
	}
	for _, op := range ops {
		r := j.reasonsFor(op)
		if r != j.reasonsFor(op) || r.allowed != op+" allowed: sensor context matches a legal activity scene" {
			t.Fatalf("reasonsFor(%q) = %+v, not one interned copy", op, r)
		}
	}
	if r := j.reasonsFor("op.full"); r.notSensitive != "op.full is not a sensitive instruction" || len(*j.reasons.Load()) != reasonCap {
		t.Fatalf("a full table served %+v and grew to %d", r, len(*j.reasons.Load()))
	}
}
