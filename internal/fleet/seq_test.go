package fleet

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iotsid/internal/core"
	"iotsid/internal/dataset"
	"iotsid/internal/seq"
)

// trainedSeqSet caches one trained sequence set across the test binary.
var trainedSeqSet *seq.Set

func seqSetForTest(t testing.TB) *seq.Set {
	t.Helper()
	if trainedSeqSet != nil {
		return trainedSeqSet
	}
	set, err := seq.Train(seq.TrainConfig{Seed: 7, Models: []dataset.Model{dataset.ModelWindow}})
	if err != nil {
		t.Fatal(err)
	}
	trainedSeqSet = set
	return set
}

// pushAndAuthorize publishes the event's scene and judges its instruction
// for one home.
func pushAndAuthorize(t testing.TB, f *Fleet, home string, e seq.TraceEvent) core.Decision {
	t.Helper()
	if err := f.PushContext(home, e.WindowScene()); err != nil {
		t.Fatal(err)
	}
	op := "window.get_state"
	if e.Sensitive {
		op = "window.open"
	}
	dec, err := authorizeOne(context.Background(), f, home, buildInstr(t, op, "window-1"))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestFleetSequenceCombinedVerdict exercises the per-home fail-closed
// combination: an armed home's benign stream flows, its same-tick chain
// is sequence-rejected, and an unarmed home in the same fleet is
// completely unaffected (histories and verdicts are per-home).
func TestFleetSequenceCombinedVerdict(t *testing.T) {
	f := fleetForTest(t, Config{Shards: 4})
	mustAddHome(t, f, HomeConfig{ID: "armed", Sequence: seqSetForTest(t)})
	mustAddHome(t, f, HomeConfig{ID: "plain"})

	trace := seq.LegalTrace(rand.New(rand.NewSource(3301)), 12, 8, 13)
	for i, e := range trace {
		if dec := pushAndAuthorize(t, f, "armed", e); !dec.Allowed {
			t.Fatalf("armed home benign event %d rejected: %s", i, dec.Reason)
		}
	}
	if got := f.SeqAnomalies(); got != 0 {
		t.Fatalf("benign stream tripped %d sequence anomalies", got)
	}

	// Same-tick chain on the armed home: fillers admitted, the sensitive
	// tail refused with the interned reason.
	last := trace[len(trace)-1]
	burst := seq.TraceEvent{At: last.At.Add(40 * time.Second), Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	for i := 0; i < 3; i++ {
		if dec := pushAndAuthorize(t, f, "armed", burst); !dec.Allowed {
			t.Fatalf("chain filler %d rejected: %s", i, dec.Reason)
		}
	}
	burst.Sensitive = true
	dec := pushAndAuthorize(t, f, "armed", burst)
	if dec.Allowed {
		t.Fatal("armed home must sequence-reject the same-tick sensitive tail")
	}
	if dec.Reason != core.ReasonSeqAnomaly {
		t.Fatalf("rejection reason = %q, want interned sequence reason", dec.Reason)
	}
	if got := f.SeqAnomalies(); got != 1 {
		t.Fatalf("SeqAnomalies = %d, want 1", got)
	}

	// The unarmed home replays the exact same burst and is allowed — no
	// sequence set, no sequence verdict.
	for i := 0; i < 3; i++ {
		burst.Sensitive = false
		if dec := pushAndAuthorize(t, f, "plain", burst); !dec.Allowed {
			t.Fatalf("plain home filler %d rejected: %s", i, dec.Reason)
		}
	}
	burst.Sensitive = true
	if dec := pushAndAuthorize(t, f, "plain", burst); !dec.Allowed {
		t.Fatalf("plain home must stay tree-only, got rejection: %s", dec.Reason)
	}
	if got := f.SeqAnomalies(); got != 1 {
		t.Fatalf("SeqAnomalies moved to %d on the unarmed home", got)
	}
}

// TestFleetAuthorizeSequenceSteadyStateAllocs pins the fleet's 0-alloc
// criterion with the sequence judge armed, on both steady states: the
// allow path (zero-At scene, per-authorize clock advance keeps the gap in
// profile) and the fail-closed path (frozen scene time, every follow-up
// same-tick).
func TestFleetAuthorizeSequenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	clock := time.Date(2021, 4, 1, 10, 0, 0, 0, time.UTC)
	f := fleetForTest(t, Config{Shards: 4, Now: func() time.Time {
		clock = clock.Add(time.Minute)
		return clock
	}})
	mustAddHome(t, f, HomeConfig{ID: "allow", Sequence: seqSetForTest(t)})
	mustAddHome(t, f, HomeConfig{ID: "closed", Sequence: seqSetForTest(t)})
	ctx := context.Background()
	in := buildInstr(t, "window.open", "window-1")

	// Allow path: the pushed scene's zero At makes the sequence judge
	// stamp events off the fleet clock, which advances one minute per
	// authorize — a steady in-profile sensitive stream.
	e := seq.TraceEvent{Hour: 10, Voice: true, Occupied: true, Sensitive: true}
	scene := e.WindowScene()
	scene.At = time.Time{}
	if err := f.PushContext("allow", scene); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		dec, err := authorizeOne(ctx, f, "allow", in)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatalf("warmup %d rejected: %s", i, dec.Reason)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if dec := authorizeItem(t, f, "allow", in); !dec.Allowed {
			t.Fatalf("allow path broke: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Errorf("sequence-judged fleet allow path allocates %.1f objects/op, want 0", allocs)
	}

	// Fail-closed path: the scene keeps its fixed event time, so every
	// authorize after the first is same-tick and sequence-rejected.
	frozen := seq.TraceEvent{At: clock, Hour: 10, Voice: true, Occupied: true, Sensitive: true}
	if err := f.PushContext("closed", frozen.WindowScene()); err != nil {
		t.Fatal(err)
	}
	if dec, err := authorizeOne(ctx, f, "closed", in); err != nil || !dec.Allowed {
		t.Fatalf("cold-start authorize: %+v, %v", dec, err)
	}
	for i := 0; i < 50; i++ {
		dec, err := authorizeOne(ctx, f, "closed", in)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed || dec.Reason != core.ReasonSeqAnomaly {
			t.Fatalf("warmup %d: want sequence rejection, got %+v", i, dec)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if dec := authorizeItem(t, f, "closed", in); dec.Allowed {
			t.Fatalf("fail-closed path broke: %+v", dec)
		}
	})
	if allocs != 0 {
		t.Errorf("sequence fail-closed fleet path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFleetSeqPushAuthorizeRace hammers one sequence-armed home with
// concurrent context pushes and authorizations (sensitive and not) — the
// tracker mutex and the view pointer must keep the combined path sound
// under -race; no decision may error.
func TestFleetSeqPushAuthorizeRace(t *testing.T) {
	f := fleetForTest(t, Config{Shards: 2})
	mustAddHome(t, f, HomeConfig{ID: "h", Sequence: seqSetForTest(t)})
	base := seq.TraceEvent{At: time.Date(2021, 4, 1, 9, 0, 0, 0, time.UTC), Hour: 9, Voice: true, Occupied: true, Sensitive: true}
	if err := f.PushContext("h", base.WindowScene()); err != nil {
		t.Fatal(err)
	}
	const iters = 1500
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		e := base
		for i := 0; i < iters; i++ {
			e.At = e.At.Add(time.Second)
			e.Hour += 1.0 / 3600
			if err := f.PushContext("h", e.WindowScene()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	open := buildInstr(t, "window.open", "window-1")
	get := buildInstr(t, "window.get_state", "window-1")
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := authorizeOne(ctx, f, "h", open); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := authorizeOne(ctx, f, "h", get); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	h, _ := f.Home("h")
	log := h.stage.Log()
	if got := log[len(log)-1].Seq; got != 2*iters {
		t.Fatalf("decisions = %d, want %d", got, 2*iters)
	}
}
