package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
	"iotsid/internal/seq"
)

// trainedSeqSet caches one trained sequence set across the test binary.
var trainedSeqSet *seq.Set

func seqSetForTest(t *testing.T) *seq.Set {
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

func seqFrameworkForTest(t *testing.T, c Collector) *Framework {
	t.Helper()
	f, err := New(Config{
		Detector:  detectorForTest(t),
		Collector: c,
		Memory:    memoryForTest(t),
		Sequence:  seqSetForTest(t),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

// warmBenign drives a short coherent benign stream (daytime hours, so the
// static tree's voice-legal branch holds throughout) and asserts every
// decision is allowed — the sequence judge must not cost availability on
// in-profile traffic.
func warmBenign(t *testing.T, f *Framework, seed int64, n int) seq.TraceEvent {
	t.Helper()
	trace := seq.LegalTrace(rand.New(rand.NewSource(seed)), n, 8, 13)
	var last seq.TraceEvent
	for i, e := range trace {
		op, dev := "window.get_state", "window-1"
		if e.Sensitive {
			op = "window.open"
		}
		dec, err := f.Judge(buildInstr(t, op, dev), e.WindowScene())
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatalf("benign event %d (%s, hour %.2f) rejected: %s", i, op, e.Hour, dec.Reason)
		}
		last = e
	}
	return last
}

// seqAnomalies counts the framework's logged sequence rejections.
func seqAnomalies(f *Framework) int {
	n := 0
	for _, e := range f.Log() {
		if e.Decision.Outcome == OutcomeSeqAnomaly {
			n++
		}
	}
	return n
}

// TestFrameworkSequenceCombinedVerdict exercises the fail-closed
// combination on the single-home framework: benign in-profile traffic
// flows, a same-tick automation-chain burst is rejected by the sequence
// judge even though the static tree allows each scene, the tree's own
// rejections still stand, and non-sensitive instructions are never
// sequence-blocked.
func TestFrameworkSequenceCombinedVerdict(t *testing.T) {
	f := seqFrameworkForTest(t, staticCollector{})
	last := warmBenign(t, f, 1101, 12)
	if got := seqAnomalies(f); got != 0 {
		t.Fatalf("benign stream tripped %d sequence anomalies", got)
	}

	// Automation chain: three benign status reads and a sensitive action,
	// all in the same tick. Each scene alone is tree-legal; the same-tick
	// cascade is the temporal signature the tree cannot see.
	burstAt := last.At.Add(45 * time.Second)
	burst := seq.TraceEvent{At: burstAt, Hour: last.Hour, Voice: true, Occupied: last.Occupied}
	for i := 0; i < 3; i++ {
		dec, err := f.Judge(buildInstr(t, "window.get_state", "window-1"), burst.WindowScene())
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatalf("non-sensitive chain filler %d rejected: %s", i, dec.Reason)
		}
	}
	final := seq.TraceEvent{At: burstAt, Hour: last.Hour, Voice: true, Occupied: last.Occupied, Sensitive: true}
	dec, err := f.Judge(buildInstr(t, "window.open", "window-1"), final.WindowScene())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("same-tick chain's sensitive action must be sequence-rejected")
	}
	if dec.Reason != ReasonSeqAnomaly {
		t.Fatalf("chain rejection reason = %q, want interned sequence reason", dec.Reason)
	}
	if !dec.Sensitive {
		t.Fatal("sequence rejection must be marked sensitive")
	}
	if got := seqAnomalies(f); got != 1 {
		t.Fatalf("sequence anomalies = %d, want 1", got)
	}

	// The static tree's rejections stand on their own: an attack scene is
	// refused with the tree's reason, not the sequence judge's, and a
	// rejected event never extends the history.
	dec, err = f.Judge(buildInstr(t, "window.open", "window-1"), attackCtx(t, dataset.ModelWindow))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed {
		t.Fatal("tree must reject the attack scene")
	}
	if dec.Reason == ReasonSeqAnomaly {
		t.Fatal("tree rejection must not be re-attributed to the sequence judge")
	}
}

// TestFrameworkSequenceReplayRejected stages the stale_replay attack: the
// replayed scene carries an hour bucket no benign day ever jumps to, so
// the tree (which sees a voice-legal hour) allows and the sequence judge
// refuses — and keeps refusing, because rejected events are never
// admitted into the history.
func TestFrameworkSequenceReplayRejected(t *testing.T) {
	f := seqFrameworkForTest(t, staticCollector{})
	last := warmBenign(t, f, 2202, 12)

	replay := seq.TraceEvent{
		At:        last.At.Add(90 * time.Second),
		Hour:      seq.ReplayHour(last.Hour),
		Voice:     true,
		Occupied:  last.Occupied,
		Sensitive: true,
	}
	for attempt := 0; attempt < 3; attempt++ {
		dec, err := f.Judge(buildInstr(t, "window.open", "window-1"), replay.WindowScene())
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed {
			t.Fatalf("replay attempt %d allowed (hour %.1f after %.2f)", attempt, replay.Hour, last.Hour)
		}
		if dec.Reason != ReasonSeqAnomaly {
			t.Fatalf("replay attempt %d reason = %q, want sequence anomaly", attempt, dec.Reason)
		}
		replay.At = replay.At.Add(90 * time.Second)
	}
	if got := seqAnomalies(f); got != 3 {
		t.Fatalf("sequence anomalies = %d, want 3 (replay must stay anomalous)", got)
	}

	// The stream recovers: the next in-profile event is allowed.
	next := seq.TraceEvent{At: replay.At, Hour: last.Hour + 0.1, Voice: true, Occupied: last.Occupied, Sensitive: true}
	dec, err := f.Judge(buildInstr(t, "window.open", "window-1"), next.WindowScene())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed {
		t.Fatalf("in-profile event after rejected replays must be allowed, got %s", dec.Reason)
	}
}

// seqAdvancingCollector republishes one fixed scene with a timestamp that
// advances a minute per collect — a steady in-profile stream for the
// allocation gate (the map is shared, the mutation is one time.Time
// field).
type seqAdvancingCollector struct{ snap sensor.Snapshot }

func (c *seqAdvancingCollector) Collect(context.Context) (sensor.Snapshot, error) {
	c.snap.At = c.snap.At.Add(time.Minute)
	return c.snap, nil
}

// TestAuthorizeSequenceSteadyStateAllocs pins the 0-alloc criterion on
// both sequence-judged steady states: the allow path (in-profile stream,
// ring write per decision) and the fail-closed path (same-tick stream,
// every sensitive decision rewritten to the interned anomaly rejection).
func TestAuthorizeSequenceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	base := seq.TraceEvent{At: time.Date(2021, 4, 1, 10, 0, 0, 0, time.UTC), Hour: 10, Voice: true, Occupied: true, Sensitive: true}
	in := buildInstr(t, "window.open", "window-1")
	ctx := context.Background()

	// Allow path: timestamps advance, symbols stay in profile.
	f := seqFrameworkForTest(t, &seqAdvancingCollector{snap: base.WindowScene()})
	for i := 0; i < 400; i++ {
		dec, err := f.Authorize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !dec.Allowed {
			t.Fatalf("warmup %d rejected: %s", i, dec.Reason)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if dec, err := f.Authorize(ctx, in); err != nil || !dec.Allowed {
			t.Fatalf("allow path broke: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Errorf("sequence-judged allow path allocates %.1f objects/op, want 0", allocs)
	}

	// Fail-closed path: a frozen timestamp makes every follow-up same-tick
	// (instant gap) — rejected with the interned reason, nothing appended.
	f2 := seqFrameworkForTest(t, staticCollector{snap: base.WindowScene()})
	if dec, err := f2.Authorize(ctx, in); err != nil || !dec.Allowed {
		t.Fatalf("cold-start authorize: %+v, %v", dec, err)
	}
	for i := 0; i < 50; i++ {
		dec, err := f2.Authorize(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Allowed || dec.Reason != ReasonSeqAnomaly {
			t.Fatalf("warmup %d: want sequence rejection, got %+v", i, dec)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if dec, err := f2.Authorize(ctx, in); err != nil || dec.Allowed {
			t.Fatalf("fail-closed path broke: %+v, %v", dec, err)
		}
	})
	if allocs != 0 {
		t.Errorf("sequence fail-closed path allocates %.1f objects/op, want 0", allocs)
	}
}
