package seq

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// smallTrain is the shared test table: full default distribution, reduced
// volume so the suite stays fast.
func smallTrain(t *testing.T, workers int) *Set {
	t.Helper()
	set, err := Train(TrainConfig{Seed: 7, Sequences: 120, Events: 48, Workers: workers})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return set
}

// TestTrainDeterminism is the PR 2-pattern golden: training serially and
// with 8 workers must produce byte-identical serialized tables.
func TestTrainDeterminism(t *testing.T) {
	serial := smallTrain(t, 1)
	parallel := smallTrain(t, 8)
	if !bytes.Equal(serial.Serialize(), parallel.Serialize()) {
		t.Fatalf("serial and 8-worker training produced different tables")
	}
	// And a different seed must produce a different table — the golden is
	// not vacuous.
	other, err := Train(TrainConfig{Seed: 8, Sequences: 120, Events: 48})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if bytes.Equal(serial.Serialize(), other.Serialize()) {
		t.Fatalf("different seeds produced identical tables")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(TrainConfig{Seed: 1, Events: 1, Sequences: 4}); err == nil {
		t.Fatalf("want error for single-event sequences")
	}
	if _, err := Train(TrainConfig{Seed: 1, Alpha: -1}); err == nil {
		t.Fatalf("want error for negative alpha")
	}
	if _, err := Train(TrainConfig{Seed: 1, Margin: -0.1}); err == nil {
		t.Fatalf("want error for negative margin")
	}
}

func TestSetModels(t *testing.T) {
	set := smallTrain(t, 0)
	if got, want := len(set.Models()), len(dataset.Models()); got != want {
		t.Fatalf("Models() = %d models, want %d", got, want)
	}
	if _, ok := set.models[dataset.ModelWindow]; !ok {
		t.Fatalf("window model missing from trained set")
	}
	if _, ok := set.models[dataset.Model("nonsense")]; ok {
		t.Fatalf("unknown model unexpectedly present")
	}
	win := set.models[dataset.ModelWindow]
	if win.Transitions() == 0 {
		t.Fatalf("window table has no transitions")
	}
}

func TestGapBucket(t *testing.T) {
	cases := []struct {
		sec  float64
		want int
	}{
		{0, GapInstant}, {4.9, GapInstant}, {-60, GapInstant}, {math.NaN(), GapInstant},
		{5, GapShort}, {119, GapShort},
		{120, GapMedium}, {1799, GapMedium},
		{1800, GapLong}, {math.Inf(1), GapLong},
	}
	for _, c := range cases {
		if got := GapBucket(c.sec); got != c.want {
			t.Errorf("GapBucket(%v) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func TestEncodeExplicitTemporalFeatures(t *testing.T) {
	at := traceBase.Add(10 * time.Hour)
	snap := sensor.NewSnapshot(at)
	snap.Set(sensor.FeatHour, sensor.Number(10))
	snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
	snap.Set(sensor.FeatOccupancy, sensor.Bool(true))

	derived := Encode(true, snap, 60, time.Hour)
	if got := int(derived>>gapShift) & 3; got != GapShort {
		t.Fatalf("derived gap bucket = %d, want %d", got, GapShort)
	}
	if derived&bitDwell == 0 {
		t.Fatalf("hour-long dwell should be established")
	}

	// Explicit features override the derived timeline.
	snap.Set(sensor.FeatInstrGap, sensor.Number(3600))
	snap.Set(sensor.FeatOccupancyDwell, sensor.Number(10))
	explicit := Encode(true, snap, 60, time.Hour)
	if got := int(explicit>>gapShift) & 3; got != GapLong {
		t.Fatalf("explicit gap bucket = %d, want %d", got, GapLong)
	}
	if explicit&bitDwell != 0 {
		t.Fatalf("10 s explicit dwell should not be established")
	}

	// NaN explicit values must stay inside the alphabet deterministically.
	snap.Set(sensor.FeatInstrGap, sensor.Number(math.NaN()))
	snap.Set(sensor.FeatOccupancyDwell, sensor.Number(math.NaN()))
	nan := Encode(true, snap, 60, time.Hour)
	if got := int(nan>>gapShift) & 3; got != GapInstant {
		t.Fatalf("NaN gap bucket = %d, want %d", got, GapInstant)
	}
	if nan&bitDwell != 0 {
		t.Fatalf("NaN dwell must not read as established")
	}
}

func TestSymbolString(t *testing.T) {
	s := bitSensitive | bitVoice | Symbol(2)<<hourShift | Symbol(GapShort)<<gapShift | bitDwell
	want := "sym(sens=1 voice=1 occ=0 hour=2 gap=1 dwell=1)"
	if got := s.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestLegalTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trace := LegalTrace(rng, 64, TraceHourLo, TraceHourHi)
	if len(trace) != 64 {
		t.Fatalf("trace length %d, want 64", len(trace))
	}
	sensitives := 0
	for i, e := range trace {
		if e.Hour < 0 || e.Hour >= 24 {
			t.Fatalf("event %d hour %v outside [0,24)", i, e.Hour)
		}
		if e.Sensitive {
			sensitives++
			if !e.Occupied || !e.Voice {
				t.Fatalf("event %d: sensitive while unoccupied or voiceless", i)
			}
		}
		if i > 0 {
			gap := e.At.Sub(trace[i-1].At)
			if gap < 30*time.Second {
				t.Fatalf("event %d gap %v below human pacing floor", i, gap)
			}
			if GapBucket(gap.Seconds()) == GapInstant {
				t.Fatalf("benign trace produced an instant gap")
			}
		}
	}
	if sensitives == 0 {
		t.Fatalf("trace has no sensitive events")
	}
	snap := trace[0].Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("trace snapshot fails vocabulary validation: %v", err)
	}
}

// TestAdmitMatchesObserveJudge: the training fold (Admit) and the runtime
// admit path (ObserveJudge on benign traffic) must produce the same symbol
// stream — otherwise the trained table and the runtime judge silently
// diverge.
func TestAdmitMatchesObserveJudge(t *testing.T) {
	set := smallTrain(t, 0)
	rng := rand.New(rand.NewSource(11))
	trace := LegalTrace(rng, 40, TraceHourLo, TraceHourHi)

	var train Tracker
	trainSyms := make([]Symbol, 0, len(trace))
	for _, e := range trace {
		trainSyms = append(trainSyms, train.Admit(e.Sensitive, e.Snapshot(), e.At))
	}

	var run Tracker
	for i, e := range trace {
		v := set.ObserveJudge(&run, dataset.ModelWindow, e.Sensitive, true, e.Snapshot(), e.At)
		if v.Anomalous {
			t.Fatalf("benign event %d flagged anomalous (min LL %v)", i, v.MinLL)
		}
	}
	if run.n != train.n {
		t.Fatalf("runtime tracker admitted %d events, training fold %d", run.n, train.n)
	}
	for i := 0; i < histCap && i < len(trainSyms); i++ {
		if run.hist[i] != train.hist[i] {
			t.Fatalf("ring slot %d diverged: runtime %v, training %v", i, run.hist[i], train.hist[i])
		}
	}
}

// TestHeldOutAvailability replays held-out benign days (seeds disjoint
// from training) through the judge: zero sensitive events may be flagged.
// This is the package-level availability guarantee the eval campaign's
// 100 % clean availability rests on.
func TestHeldOutAvailability(t *testing.T) {
	set := smallTrain(t, 0)
	flagged, fired := 0, 0
	for s := int64(0); s < 40; s++ {
		rng := rand.New(rand.NewSource(500_000 + s))
		var tr Tracker
		for _, e := range LegalTrace(rng, 48, TraceHourLo, TraceHourHi) {
			v := set.ObserveJudge(&tr, dataset.ModelWindow, e.Sensitive, true, e.Snapshot(), e.At)
			if e.Sensitive {
				fired++
				if v.Anomalous {
					flagged++
				}
			}
		}
	}
	if fired == 0 {
		t.Fatalf("no sensitive events fired")
	}
	if flagged != 0 {
		t.Fatalf("held-out benign traffic flagged %d/%d sensitive events", flagged, fired)
	}
}

// chainStep appends one benign same-tick filler via ObserveJudge (the
// automation-chain shape: non-sensitive events are observed, never
// sequence-blocked).
func TestChainAttackFlagged(t *testing.T) {
	set := smallTrain(t, 0)
	var tr Tracker
	rng := rand.New(rand.NewSource(21))
	trace := LegalTrace(rng, 20, TraceHourLo, TraceHourHi)
	for _, e := range trace {
		set.ObserveJudge(&tr, dataset.ModelWindow, e.Sensitive, true, e.Snapshot(), e.At)
	}
	last := trace[len(trace)-1]

	// The cascade: three same-tick benign fillers, then the sensitive
	// action, all sharing one trigger instant.
	burstAt := last.At.Add(45 * time.Second)
	burst := TraceEvent{At: burstAt, Hour: last.Hour, Voice: true, Occupied: true}
	for i := 0; i < 3; i++ {
		v := set.ObserveJudge(&tr, "", false, true, burst.Snapshot(), burstAt)
		if v.Anomalous || v.Judged {
			t.Fatalf("non-sensitive filler %d must be observed, not judged", i)
		}
	}
	before := tr.n
	v := set.ObserveJudge(&tr, dataset.ModelWindow, true, true, burst.Snapshot(), burstAt)
	if !v.Judged || !v.Anomalous {
		t.Fatalf("chain-final sensitive action not flagged: %+v", v)
	}
	if v.BadTransitions == 0 || v.MinLL >= 0 {
		t.Fatalf("verdict carries no evidence: %+v", v)
	}
	if tr.n != before {
		t.Fatalf("rejected event was appended to history")
	}
}

// TestReplayAttackFlagged: a re-stamped stale context whose hour-of-day
// bucket jumps backward is anomalous — and stays anomalous on repeat,
// because rejected events never enter the history.
func TestReplayAttackFlagged(t *testing.T) {
	set := smallTrain(t, 0)
	var tr Tracker
	rng := rand.New(rand.NewSource(33))
	trace := LegalTrace(rng, 16, 12, 18)
	for _, e := range trace {
		set.ObserveJudge(&tr, dataset.ModelWindow, e.Sensitive, true, e.Snapshot(), e.At)
	}
	last := trace[len(trace)-1]
	replayHour := ReplayHour(last.Hour)
	for k := 0; k < 4; k++ {
		at := last.At.Add(time.Duration(45+15*k) * time.Second)
		replay := TraceEvent{At: at, Hour: replayHour, Voice: true, Occupied: true}
		v := set.ObserveJudge(&tr, dataset.ModelWindow, true, true, replay.Snapshot(), at)
		if !v.Anomalous {
			t.Fatalf("replay fire %d not flagged (current hour %v, replayed %v)", k, last.Hour, replayHour)
		}
	}
}

func TestReplayHourAlwaysSeparable(t *testing.T) {
	for h := 0.0; h < 24; h += 0.5 {
		cur := sensor.TimeBucketIndex(h)
		tgt := sensor.TimeBucketIndex(ReplayHour(h))
		if tgt == cur {
			t.Fatalf("ReplayHour(%v) lands in the current bucket", h)
		}
		if tgt == (cur+1)%sensor.TimeBucketCount {
			t.Fatalf("ReplayHour(%v) lands forward-adjacent (trainable crossing)", h)
		}
		rh := ReplayHour(h)
		if rh < 6 || rh > 23.5 {
			t.Fatalf("ReplayHour(%v) = %v outside the voice-legal hour range", h, rh)
		}
	}
}

func TestColdStartAllows(t *testing.T) {
	set := smallTrain(t, 0)
	var tr Tracker
	e := TraceEvent{At: traceBase.Add(10 * time.Hour), Hour: 10, Voice: true, Occupied: true}
	v := set.ObserveJudge(&tr, dataset.ModelWindow, true, true, e.Snapshot(), e.At)
	if v.Judged || v.Anomalous {
		t.Fatalf("cold-start sensitive event must not be judged: %+v", v)
	}
	if tr.n != 1 {
		t.Fatalf("cold-start event not admitted")
	}
}

func TestDisallowedAndUnknownModelPaths(t *testing.T) {
	set := smallTrain(t, 0)
	var tr Tracker
	e := TraceEvent{At: traceBase.Add(10 * time.Hour), Hour: 10, Voice: true, Occupied: true}
	// A tree-rejected instruction is neither judged nor admitted.
	if v := set.ObserveJudge(&tr, dataset.ModelWindow, true, false, e.Snapshot(), e.At); v.Judged || v.Anomalous {
		t.Fatalf("disallowed event judged: %+v", v)
	}
	if tr.n != 0 {
		t.Fatalf("disallowed event admitted")
	}
	// Sensitive but no trained table for the model: admitted, not judged.
	set.ObserveJudge(&tr, "", false, true, e.Snapshot(), e.At)
	if v := set.ObserveJudge(&tr, dataset.Model("mystery"), true, true, e.Snapshot(), e.At.Add(time.Minute)); v.Judged {
		t.Fatalf("unknown model judged: %+v", v)
	}
	if tr.n != 2 {
		t.Fatalf("unknown-model events not admitted, len=%d", tr.n)
	}
}

func TestSerializeStable(t *testing.T) {
	set := smallTrain(t, 0)
	if !bytes.Equal(set.Serialize(), set.Serialize()) {
		t.Fatalf("Serialize is not stable")
	}
	if !bytes.HasPrefix(set.Serialize(), []byte("seq-table v1")) {
		t.Fatalf("serialized header missing")
	}
}

func TestLogLikelihoodOrdering(t *testing.T) {
	set := smallTrain(t, 0)
	win, _ := set.models[dataset.ModelWindow]
	// Find a seen transition and verify it clears its row gate while an
	// unseen one in the same row falls below it.
	for r := 0; r < SymbolSpace; r++ {
		if win.rowTotal[r] == 0 {
			continue
		}
		var seen, unseen = -1, -1
		for c := 0; c < SymbolSpace; c++ {
			if win.counts[r*SymbolSpace+c] > 0 {
				seen = c
			} else {
				unseen = c
			}
		}
		if seen < 0 || unseen < 0 {
			continue
		}
		if win.anomalous(Symbol(r), Symbol(seen)) {
			t.Fatalf("seen transition (%d→%d) flagged anomalous", r, seen)
		}
		if !win.anomalous(Symbol(r), Symbol(unseen)) {
			t.Fatalf("unseen transition (%d→%d) not flagged", r, unseen)
		}
		if win.LogLikelihood(Symbol(r), Symbol(unseen)) >= win.LogLikelihood(Symbol(r), Symbol(seen)) {
			t.Fatalf("unseen transition scored above a seen one in the same row")
		}
		return
	}
	t.Fatalf("no populated row found")
}
