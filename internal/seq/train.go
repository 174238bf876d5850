package seq

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/par"
	"iotsid/internal/sensor"
)

// traceBase anchors simulated benign days; only hour-of-day and the gaps
// between events matter to the symbols.
var traceBase = time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)

// Default training-trace start-hour window. Benign days start in waking
// hours and advance from there; the hour feature then moves strictly
// forward, so a trained table contains only forward-adjacent time-bucket
// crossings — which is exactly what makes a replayed backward (or
// two-bucket) hour jump separable.
const (
	TraceHourLo = 8
	TraceHourHi = 18
)

// TraceEvent is one simulated benign home event: the instruction's
// sensitivity plus the context bits the sequence symbols discretize.
type TraceEvent struct {
	At        time.Time
	Hour      float64
	Voice     bool
	Occupied  bool
	Sensitive bool
}

// Snapshot renders the event's minimal sensor context, stamped with its
// event time.
func (e TraceEvent) Snapshot() sensor.Snapshot {
	snap := sensor.NewSnapshotCap(e.At, 4)
	snap.Set(sensor.FeatHour, sensor.Number(e.Hour))
	snap.Set(sensor.FeatVoiceCmd, sensor.Bool(e.Voice))
	snap.Set(sensor.FeatOccupancy, sensor.Bool(e.Occupied))
	snap.Set(sensor.FeatMotion, sensor.Bool(true))
	return snap
}

// LegalTrace simulates one temporally coherent benign event stream of n
// events: human-paced gaps (never same-tick), an hour-of-day that advances
// with the gaps, mostly stable occupancy with occasional flips, sensitive
// instructions only while occupied and always voice-commanded (the legal
// "voice-commanded" activity family). The eval layer's clean campaign
// phases draw from this same generator, so benign runtime traffic and the
// trained profile share one distribution.
func LegalTrace(rng *rand.Rand, n int, startLo, startHi float64) []TraceEvent {
	hour := startLo + rng.Float64()*(startHi-startLo)
	at := traceBase.Add(time.Duration(hour * float64(time.Hour)))
	occupied := true
	out := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			gap := sampleGap(rng)
			at = at.Add(gap)
			hour += gap.Hours()
			for hour >= 24 {
				hour -= 24
			}
		}
		if rng.Float64() < 0.06 {
			occupied = !occupied
		}
		sensitive := occupied && rng.Float64() < 0.35
		voice := sensitive || rng.Float64() < 0.3
		out = append(out, TraceEvent{At: at, Hour: hour, Voice: voice, Occupied: occupied, Sensitive: sensitive})
	}
	return out
}

// sampleGap draws a human-paced inter-instruction gap: short (30 s–2 min),
// medium (3–27 min) or long (35 min–2.6 h). The instant bucket (< 5 s) is
// deliberately unreachable — same-tick cascades are the automation-chain
// signature, not benign behavior.
func sampleGap(rng *rand.Rand) time.Duration {
	r := rng.Float64()
	switch {
	case r < 0.4:
		return time.Duration((30 + 90*rng.Float64()) * float64(time.Second))
	case r < 0.8:
		return time.Duration((180 + 1440*rng.Float64()) * float64(time.Second))
	default:
		return time.Duration((2100 + 7200*rng.Float64()) * float64(time.Second))
	}
}

// Admit discretizes and appends one event unconditionally — the training
// path's fold (no table to judge against yet). It derives the temporal
// features exactly like ObserveJudge's admit path, so the trained table
// and the runtime judge speak the same symbols.
func (t *Tracker) Admit(sensitive bool, snap sensor.Snapshot, at time.Time) Symbol {
	t.mu.Lock()
	gapSeconds := math.Inf(1)
	if t.n > 0 {
		gapSeconds = at.Sub(t.lastAt).Seconds()
	}
	occ := snap.Bool(sensor.FeatOccupancy)
	occAt := t.occAt
	if t.n == 0 || occ != t.occ {
		occAt = at
	}
	sym := Encode(sensitive, snap, gapSeconds, at.Sub(occAt))
	t.occ = occ
	t.occAt = occAt
	t.hist[t.n%histCap] = sym
	t.n++
	t.lastAt = at
	t.mu.Unlock()
	return sym
}

// WindowScene renders the event as a full window-model scene on the
// static tree's legal "voice-commanded airing" branch (no hazard, locked
// home, mid-range air quality): tree-legal whenever the event's hour sits
// inside the voice-legal range, and carrying exactly the hour, voice,
// occupancy and timestamp the sequence symbols discretize. The
// integration tests and the eval campaigns use it to drive the compiled
// tree and the sequence judge with one coherent stream.
func (e TraceEvent) WindowScene() sensor.Snapshot {
	snap := sensor.NewSnapshotCap(e.At, 10)
	snap.Set(sensor.FeatSmoke, sensor.Bool(false))
	snap.Set(sensor.FeatGas, sensor.Bool(false))
	snap.Set(sensor.FeatVoiceCmd, sensor.Bool(e.Voice))
	snap.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockLocked))
	snap.Set(sensor.FeatAirQuality, sensor.Number(95))
	snap.Set(sensor.FeatTempIndoor, sensor.Number(22))
	snap.Set(sensor.FeatWeather, sensor.Label(sensor.WeatherSunny))
	snap.Set(sensor.FeatMotion, sensor.Bool(true))
	snap.Set(sensor.FeatHour, sensor.Number(e.Hour))
	snap.Set(sensor.FeatOccupancy, sensor.Bool(e.Occupied))
	return snap
}

// replayHourByBucket maps the current time bucket to the stale hour a
// replay attack re-stamps. Each target is (a) neither the current bucket
// nor its forward-adjacent neighbour — benign days advance by human-paced
// gaps shorter than any bucket, so the only cross-bucket transitions a
// trained table contains are single forward crossings — and (b) inside
// the voice-legal hour range, so the static tree still admits the
// replayed scene. That combination is exactly what makes the stale_replay
// scenario tree-invisible but sequence-visible.
var replayHourByBucket = [sensor.TimeBucketCount]float64{
	15,   // night     → afternoon
	20.5, // morning   → evening
	9.5,  // afternoon → morning
	9.5,  // evening   → morning
}

// ReplayHour picks the replayed hour-of-day for a stale-context attack
// staged while the home's clock reads currentHour.
func ReplayHour(currentHour float64) float64 {
	return replayHourByBucket[sensor.TimeBucketIndex(currentHour)]
}

// TrainConfig parameterizes sequence-model training.
type TrainConfig struct {
	// Seed derives every training sequence's rng: unit u (a (model,
	// sequence) pair) is seeded Seed + 104729·u before the fan-out, so the
	// table is bit-identical at any worker count.
	Seed int64
	// Sequences is the number of simulated benign days per device model
	// (default 220).
	Sequences int
	// Events is the number of events per simulated day (default 56).
	Events int
	// Alpha is the Laplace smoothing pseudo-count (default 0.5).
	Alpha float64
	// Margin is subtracted from each row's minimum observed
	// log-likelihood to form its anomaly gate (default 0.25 — any seen
	// transition clears the gate, any unseen one in a populated row falls
	// ~log 3 below it).
	Margin float64
	// Workers bounds the training fan-out (0: GOMAXPROCS).
	Workers int
	// Models restricts training to a subset (default: all six).
	Models []dataset.Model
}

// withDefaults fills zero fields.
func (cfg TrainConfig) withDefaults() TrainConfig {
	if cfg.Sequences == 0 {
		cfg.Sequences = 220
	}
	if cfg.Events == 0 {
		cfg.Events = 56
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Margin == 0 {
		cfg.Margin = 0.25
	}
	if len(cfg.Models) == 0 {
		cfg.Models = dataset.Models()
	}
	return cfg
}

// Train fits one transition table per device model from simulated benign
// traces anchored on the corpus's legal-activity families. The fan-out
// follows the repo's seed-pre-derivation rule: unit seeds are fixed
// before any goroutine starts, partial transition lists land at their
// unit index and are merged in unit order — the result is bit-identical
// at any worker count (see TestTrainDeterminism's byte-equal golden).
func Train(cfg TrainConfig) (*Set, error) {
	cfg = cfg.withDefaults()
	if cfg.Sequences < 0 || cfg.Events < 2 {
		return nil, fmt.Errorf("seq: train needs >= 0 sequences of >= 2 events, got %d x %d", cfg.Sequences, cfg.Events)
	}
	if cfg.Alpha <= 0 || cfg.Margin < 0 {
		return nil, fmt.Errorf("seq: alpha must be positive and margin non-negative")
	}
	units := len(cfg.Models) * cfg.Sequences
	trans, err := par.Map(units, cfg.Workers, func(u int) ([]uint16, error) {
		rng := rand.New(rand.NewSource(cfg.Seed + 104729*int64(u)))
		return traceTransitions(LegalTrace(rng, cfg.Events, TraceHourLo, TraceHourHi)), nil
	})
	if err != nil {
		return nil, err
	}
	set := &Set{
		models: make(map[dataset.Model]*Model, len(cfg.Models)),
		alpha:  cfg.Alpha,
		margin: cfg.Margin,
	}
	for mi, m := range cfg.Models {
		mod := newModel(cfg.Alpha, cfg.Margin)
		for si := 0; si < cfg.Sequences; si++ {
			for _, pair := range trans[mi*cfg.Sequences+si] {
				mod.add(Symbol(pair>>8), Symbol(pair&0xff))
			}
		}
		mod.finalize()
		set.models[m] = mod
	}
	return set, nil
}

// traceTransitions folds a trace through a fresh tracker and returns its
// packed (from, to) transitions.
func traceTransitions(trace []TraceEvent) []uint16 {
	var tr Tracker
	out := make([]uint16, 0, len(trace)-1)
	prev, havePrev := Symbol(0), false
	for _, e := range trace {
		sym := tr.Admit(e.Sensitive, e.Snapshot(), e.At)
		if havePrev {
			out = append(out, uint16(prev)<<8|uint16(sym))
		}
		prev, havePrev = sym, true
	}
	return out
}

// Serialize renders the trained set in a canonical byte-stable text form
// — models in dataset order, transitions sorted row-major — so the
// determinism golden can compare serial and parallel training runs
// byte-for-byte.
func (s *Set) Serialize() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "seq-table v1 alpha=%g margin=%g\n", s.alpha, s.margin)
	for _, m := range s.Models() {
		mod := s.models[m]
		fmt.Fprintf(&b, "model %s transitions=%d\n", m, mod.Transitions())
		for idx, c := range mod.counts {
			if c > 0 {
				fmt.Fprintf(&b, "%d %d %d\n", idx/SymbolSpace, idx%SymbolSpace, c)
			}
		}
	}
	return b.Bytes()
}
