// Package seq is the temporal second detection axis (ROADMAP item 1): a
// deterministic per-device-model Markov model over discretized
// (instruction, context-bucket) events, in the spirit of 6thSense's
// Markov-chain detection over sensor-state sequences.
//
// Every judged event is discretized into an 8-bit Symbol — sensitivity,
// voice command, occupancy, time-of-day bucket, inter-instruction gap
// bucket and occupancy-dwell bucket — and a first-order transition table
// with Laplace smoothing scores how surprising the recent symbol
// transitions are. A sensitive instruction must pass BOTH the compiled
// context tree and this sequence judge (fail-closed combination): the
// static tree answers "is this context a legal scene", the sequence judge
// answers "did we arrive at this context the way legal traffic does".
// That closes the two holes static context cannot see — benign-looking
// automation chains that end in a sensitive action, and replayed stale
// contexts re-stamped fresh.
//
// Determinism contract: training fans out over internal/par with every
// unit's seed pre-derived from (base seed, unit index), partial counts
// merged in unit order — the serialized table is bit-identical at any
// worker count. Runtime judging is pure integer/float arithmetic over a
// fixed-size table: no wall clock, no global rand, no allocation.
package seq

import (
	"fmt"
	"math"
	"sync"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// Symbol is one discretized (instruction, context-bucket) event.
//
// Bit layout:
//
//	bit 0    — instruction is sensitive
//	bit 1    — voice command present in the context
//	bit 2    — home occupied
//	bits 3-4 — time-of-day bucket (sensor.TimeBucketIndex)
//	bits 5-6 — inter-instruction gap bucket (GapBucket)
//	bit 7    — occupancy dwell established (state held ≥ DwellEstablished)
type Symbol uint8

// SymbolSpace is the alphabet size; transition tables are SymbolSpace².
const SymbolSpace = 256

// Symbol bit layout constants.
const (
	bitSensitive Symbol = 1 << 0
	bitVoice     Symbol = 1 << 1
	bitOccupied  Symbol = 1 << 2
	hourShift           = 3 // 2 bits
	gapShift            = 5 // 2 bits
	bitDwell     Symbol = 1 << 7
)

// Inter-instruction gap buckets. "Instant" (same-tick automation cascades)
// never occurs in human-paced legal traffic — it is the automation-chain
// signature the gap dimension exists to expose.
const (
	GapInstant = iota // < 5 s
	GapShort          // < 2 min
	GapMedium         // < 30 min
	GapLong           // ≥ 30 min (and the no-predecessor default)
)

// Gap bucket boundaries in seconds, and the dwell threshold separating a
// freshly flipped occupancy state from an established one.
const (
	gapInstantMax    = 5.0
	gapShortMax      = 120.0
	gapMediumMax     = 1800.0
	DwellEstablished = 5 * time.Minute
)

// GapBucket quantizes an inter-instruction gap (seconds) into its bucket.
// Negative gaps (out-of-order event times) are deliberately classed
// instant: time running backwards is at best a replayed stream. NaN lands
// in instant too — a malformed gap must map into the alphabet, never
// corrupt it.
//
//iot:hotpath
func GapBucket(seconds float64) int {
	switch {
	case seconds < gapInstantMax || seconds != seconds: // incl. NaN, negative
		return GapInstant
	case seconds < gapShortMax:
		return GapShort
	case seconds < gapMediumMax:
		return GapMedium
	default:
		return GapLong
	}
}

// Encode discretizes one observation. gapSeconds and dwell are the
// tracker-derived temporal features; a snapshot that carries the explicit
// temporal features (sensor.FeatInstrGap / sensor.FeatOccupancyDwell —
// a gateway pushing its own timeline) overrides the derived values.
//
//iot:hotpath
func Encode(sensitive bool, snap sensor.Snapshot, gapSeconds float64, dwell time.Duration) Symbol {
	var s Symbol
	if sensitive {
		s |= bitSensitive
	}
	if snap.Bool(sensor.FeatVoiceCmd) {
		s |= bitVoice
	}
	if snap.Bool(sensor.FeatOccupancy) {
		s |= bitOccupied
	}
	if hour, ok := snap.Number(sensor.FeatHour); ok {
		s |= Symbol(sensor.TimeBucketIndex(hour)) << hourShift
	}
	if g, ok := snap.Number(sensor.FeatInstrGap); ok {
		gapSeconds = g
	}
	s |= Symbol(GapBucket(gapSeconds)) << gapShift
	established := dwell >= DwellEstablished
	if d, ok := snap.Number(sensor.FeatOccupancyDwell); ok {
		established = !(d != d) && d >= DwellEstablished.Seconds()
	}
	if established {
		s |= bitDwell
	}
	return s
}

// coarseSpace is the backoff alphabet: the load-bearing symbol bits —
// sensitivity (1), time-of-day bucket (2) and an "instant gap" bit (1) —
// projected into 4 bits. Benign traffic's support over coarse
// transitions is tiny (same-or-forward-adjacent hour moves, never
// same-tick), so training covers it completely; the attack signatures
// (instant gap, backward or two-bucket hour jump) stay outside it at any
// training volume.
const coarseSpace = 16

// coarse projects a symbol onto the backoff alphabet.
//
//iot:hotpath
func coarse(s Symbol) int {
	instant := 0
	if (s>>gapShift)&3 == GapInstant {
		instant = 1
	}
	return int(s&bitSensitive) | int((s>>hourShift)&3)<<1 | instant<<3
}

// Model is one device model's first-order Markov transition table with
// Laplace smoothing, per-row log-likelihood gates, and coarse backoff.
//
// A transition seen in training is never anomalous (its smoothed score
// clears the row gate by construction). An unseen transition backs off to
// the coarse projection — Katz-style: full-resolution evidence when the
// table has it, the coarse table's verdict for the combinatorial tail.
// At the coarse level a transition is anomalous when its predecessor row
// was never observed or its smoothed log-likelihood falls below the
// row's gate (the lowest log-likelihood observed in training minus a
// fixed margin — within a row every unseen transition scores ≈ log 3
// below the rarest seen one at α = 0.5, so the margin separates
// robustly).
type Model struct {
	counts   []uint32 // SymbolSpace × SymbolSpace, row-major
	rowTotal [SymbolSpace]uint64
	rowGate  [SymbolSpace]float64 // NaN: row unseen in training

	coarseCounts [coarseSpace * coarseSpace]uint32
	coarseTotal  [coarseSpace]uint64
	coarseGate   [coarseSpace]float64

	alpha  float64
	margin float64
}

// newModel allocates an empty table.
func newModel(alpha, margin float64) *Model {
	m := &Model{
		counts: make([]uint32, SymbolSpace*SymbolSpace),
		alpha:  alpha,
		margin: margin,
	}
	for i := range m.rowGate {
		m.rowGate[i] = math.NaN()
	}
	for i := range m.coarseGate {
		m.coarseGate[i] = math.NaN()
	}
	return m
}

// add records one observed transition.
func (m *Model) add(from, to Symbol) {
	m.counts[int(from)*SymbolSpace+int(to)]++
	m.rowTotal[from]++
}

// finalize derives the coarse backoff table from the merged counts and
// computes the per-row gates at both resolutions.
func (m *Model) finalize() {
	for i := range m.coarseCounts {
		m.coarseCounts[i] = 0
	}
	for i := range m.coarseTotal {
		m.coarseTotal[i] = 0
	}
	for r := 0; r < SymbolSpace; r++ {
		for c := 0; c < SymbolSpace; c++ {
			if n := m.counts[r*SymbolSpace+c]; n > 0 {
				cf, ct := coarse(Symbol(r)), coarse(Symbol(c))
				m.coarseCounts[cf*coarseSpace+ct] += n
				m.coarseTotal[cf] += uint64(n)
			}
		}
	}
	for r := 0; r < SymbolSpace; r++ {
		if m.rowTotal[r] == 0 {
			m.rowGate[r] = math.NaN()
			continue
		}
		minLL := math.Inf(1)
		for c := 0; c < SymbolSpace; c++ {
			if n := m.counts[r*SymbolSpace+c]; n > 0 {
				if ll := m.logLikelihood(Symbol(r), Symbol(c)); ll < minLL {
					minLL = ll
				}
			}
		}
		m.rowGate[r] = minLL - m.margin
	}
	for r := 0; r < coarseSpace; r++ {
		if m.coarseTotal[r] == 0 {
			m.coarseGate[r] = math.NaN()
			continue
		}
		minLL := math.Inf(1)
		for c := 0; c < coarseSpace; c++ {
			if m.coarseCounts[r*coarseSpace+c] > 0 {
				if ll := m.coarseLL(r, c); ll < minLL {
					minLL = ll
				}
			}
		}
		m.coarseGate[r] = minLL - m.margin
	}
}

// logLikelihood is the Laplace-smoothed full-resolution transition
// log-probability.
//
//iot:hotpath
func (m *Model) logLikelihood(from, to Symbol) float64 {
	c := float64(m.counts[int(from)*SymbolSpace+int(to)])
	t := float64(m.rowTotal[from])
	return math.Log((c + m.alpha) / (t + m.alpha*SymbolSpace))
}

// coarseLL is the Laplace-smoothed backoff transition log-probability.
//
//iot:hotpath
func (m *Model) coarseLL(from, to int) float64 {
	c := float64(m.coarseCounts[from*coarseSpace+to])
	t := float64(m.coarseTotal[from])
	return math.Log((c + m.alpha) / (t + m.alpha*coarseSpace))
}

// LogLikelihood exposes the smoothed full-resolution score (reports,
// tests).
func (m *Model) LogLikelihood(from, to Symbol) float64 { return m.logLikelihood(from, to) }

// anomalous reports whether one transition falls outside the trained
// profile: seen at full resolution → benign; otherwise the coarse
// backoff decides.
//
//iot:hotpath
func (m *Model) anomalous(from, to Symbol) bool {
	if gate := m.rowGate[from]; gate == gate { // row seen at full resolution
		if m.logLikelihood(from, to) >= gate {
			return false // transition itself seen in training
		}
	}
	cf, ct := coarse(from), coarse(to)
	gate := m.coarseGate[cf]
	if gate != gate { // NaN: predecessor coarse state never seen
		return true
	}
	return m.coarseLL(cf, ct) < gate
}

// Transitions reports how many distinct transitions the model observed —
// a coverage statistic for reports and training sanity checks.
func (m *Model) Transitions() int {
	n := 0
	for _, c := range m.counts {
		if c > 0 {
			n++
		}
	}
	return n
}

// Set holds the trained per-device-model tables. It is immutable after
// training and safe for concurrent use by any number of trackers.
type Set struct {
	models map[dataset.Model]*Model
	alpha  float64
	margin float64
}

// Models lists the trained device models in dataset order.
func (s *Set) Models() []dataset.Model {
	out := make([]dataset.Model, 0, len(s.models))
	for _, m := range dataset.Models() {
		if _, ok := s.models[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// histCap bounds the per-home event history ring. The judge window only
// reaches judgeWindow symbols back, so a small fixed ring suffices; the
// append is a fixed array write, which is what keeps the steady-state
// authorize path allocation-free.
const histCap = 16

// judgeWindow is how many trailing symbols (including the new event) the
// sequence judge scores. Scoring a short window rather than only the
// newest transition catches chains whose poisoned step is the benign
// filler just before the sensitive action.
const judgeWindow = 4

// Tracker is one home's bounded event history: the symbol ring plus the
// state the temporal features derive from (last event time, occupancy
// dwell). The zero value is ready to use; all methods on Set lock it
// internally, so pushes and authorizes may race freely.
type Tracker struct {
	mu     sync.Mutex
	hist   [histCap]Symbol
	n      uint64 // total admitted events
	lastAt time.Time
	occ    bool
	occAt  time.Time
}

// Verdict is the sequence judge's output for one observation.
type Verdict struct {
	// Judged is true when a trained table existed for the instruction's
	// model and the history was deep enough to score at least one
	// transition.
	Judged bool
	// Anomalous is true when any transition in the judge window fell
	// outside the trained profile. The caller combines fail-closed: an
	// anomalous sensitive instruction is rejected even though the static
	// tree allowed it.
	Anomalous bool
	// BadTransitions counts the window transitions that scored anomalous.
	BadTransitions int
	// MinLL is the lowest transition log-likelihood in the window (0 when
	// nothing was scored).
	MinLL float64
}

// ObserveJudge is the single hot-path entry point: it discretizes the
// event, judges a sensitive instruction's recent transition window against
// model m's table, and — only when the event is admitted (allowed and not
// anomalous) — appends it to the history ring.
//
// Rejected events are never appended: a blocked instruction did not
// execute, and recording it would let an attacker normalize the very
// stream that convicted them (the second replay would be judged against a
// history already poisoned by the first).
//
// The tracker state update (gap, dwell) and the ring write are fixed-size
// operations under the tracker's mutex — no allocation, no map growth.
//
//iot:hotpath
//iot:failclosed
func (s *Set) ObserveJudge(tr *Tracker, m dataset.Model, sensitive, allowed bool, snap sensor.Snapshot, at time.Time) Verdict {
	if !allowed {
		return Verdict{}
	}
	tr.mu.Lock()

	// Derive the temporal features from the tracker's timeline.
	gapSeconds := math.Inf(1) // no predecessor: GapLong
	if tr.n > 0 {
		gapSeconds = at.Sub(tr.lastAt).Seconds()
	}
	occ := snap.Bool(sensor.FeatOccupancy)
	occAt := tr.occAt
	if tr.n == 0 || occ != tr.occ {
		occAt = at
	}
	dwell := at.Sub(occAt)

	sym := Encode(sensitive, snap, gapSeconds, dwell)

	var v Verdict
	if sensitive {
		if mod, ok := s.models[m]; ok {
			v = s.judgeLocked(tr, mod, sym)
		}
	}
	if !v.Anomalous { // commit on admit only: a rejected event leaves no trace
		tr.occ = occ
		tr.occAt = occAt
		tr.hist[tr.n%histCap] = sym
		tr.n++
		tr.lastAt = at
	}
	tr.mu.Unlock()
	return v
}

// judgeLocked scores the transition window ending in sym. Caller holds
// tr.mu.
//
//iot:hotpath
func (s *Set) judgeLocked(tr *Tracker, mod *Model, sym Symbol) Verdict {
	depth := tr.n
	if depth > judgeWindow-1 {
		depth = judgeWindow - 1
	}
	if depth == 0 {
		// Cold start: no history yet, nothing to score. The static tree
		// still stands alone here — the documented availability choice.
		return Verdict{}
	}
	v := Verdict{Judged: true, MinLL: math.Inf(1)}
	// Walk the last `depth` admitted symbols oldest-first, ending at sym.
	prev := tr.hist[(tr.n-depth)%histCap]
	for i := uint64(1); i <= depth; i++ {
		var cur Symbol
		if i == depth {
			cur = sym
		} else {
			cur = tr.hist[(tr.n-depth+i)%histCap]
		}
		if ll := mod.logLikelihood(prev, cur); ll < v.MinLL {
			v.MinLL = ll
		}
		if mod.anomalous(prev, cur) {
			v.BadTransitions++
		}
		prev = cur
	}
	v.Anomalous = v.BadTransitions > 0
	return v
}

// String renders a symbol for diagnostics.
func (s Symbol) String() string {
	return fmt.Sprintf("sym(sens=%d voice=%d occ=%d hour=%d gap=%d dwell=%d)",
		b2i(s&bitSensitive != 0), b2i(s&bitVoice != 0), b2i(s&bitOccupied != 0),
		int(s>>hourShift)&3, int(s>>gapShift)&3, b2i(s&bitDwell != 0))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
