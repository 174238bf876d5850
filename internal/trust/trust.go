// Package trust scores sensor sources by how believable their behavior
// is. Freshness (the provenance layer) proves a source is *talking*;
// trust proves it is *telling the truth*: a compromised gateway can push
// perfectly fresh, perfectly typed snapshots that fabricate exactly the
// context an attacker needs, and no staleness budget will ever notice.
//
// The engine keeps one score per declared source, starting at 1 (fully
// trusted). Every observation — a poll result or a pushed delta — runs
// through two detector families:
//
//   - Behavioral fingerprints learned from the source's own first
//     BaselineObs observations: report cadence, per-feature step sizes
//     and value envelopes, and dwell (how long values sit bit-identical).
//     Replayed timestamps, impossible jumps, frozen feeds and slow drift
//     out of the learned envelope all violate the fingerprint.
//   - A declarative invariant table of physics-ish cross-checks
//     ("temperature cannot step >10°C between reports", "aqi cannot be
//     negative", "occupancy=false contradicts simultaneous motion").
//
// Each violation decays the score multiplicatively; clean observations
// recover it gradually. When a score crosses the configured threshold
// the source is untrusted: decision layers fail sensitive instructions
// closed and flag the source in provenance for everything else.
//
// Determinism: scoring is pure float64 arithmetic over the observation
// sequence — same stream, same trajectory, bit for bit, at any worker
// count. Observations serialise on one mutex; the hot read side
// (TrustedIdx, ScoreIdx) is lock-free atomic loads so authorization
// paths consult the engine without allocating.
package trust

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// Fingerprint rule names — the rule labels of the violation counter.
// Invariant-table violations are counted under the invariant's own name.
const (
	RuleReplay    = "replay"    // event time ran backwards
	RuleCadence   = "cadence"   // report interval far off the learned cadence
	RuleStep      = "step"      // per-feature jump far beyond the learned step envelope
	RuleStuck     = "stuck"     // values bit-identical for too many consecutive reports
	RuleDrift     = "drift"     // value wandered out of the learned envelope
	RuleMalformed = "malformed" // NaN/Inf numeric or absent (null) value
)

// Rule positions: a rule's index in fingerprintRules and in a source's
// per-rule counters, where the invariant table follows the fingerprint
// rules in declaration order.
const (
	posReplay = iota
	posCadence
	posStep
	posStuck
	posDrift
	posMalformed
	numFingerprintRules
)

// fingerprintRules names every built-in rule by position.
var fingerprintRules = [numFingerprintRules]string{
	posReplay: RuleReplay, posCadence: RuleCadence, posStep: RuleStep,
	posStuck: RuleStuck, posDrift: RuleDrift, posMalformed: RuleMalformed,
}

// Metric names the engine owns.
const (
	metricScore      = "iotsid_trust_score_permille"
	metricViolations = "iotsid_trust_violations_total"
)

// SourceConfig declares one scored source.
type SourceConfig struct {
	// Name identifies the source; it must match the name the collector or
	// store reports observations under.
	Name string
	// Required marks a source whose low trust must fail sensitive
	// instructions closed (enforced by the decision layers, not here).
	Required bool
}

// Config tunes an Engine. The zero value picks workable defaults.
type Config struct {
	// Threshold is the score below which a source counts untrusted
	// (default 0.5).
	Threshold float64
	// Decay multiplies the score once per violation (default 0.7); two
	// violations at the defaults cross the threshold.
	Decay float64
	// Recovery pulls a clean post-baseline observation's score toward 1
	// by this fraction of the remaining gap (default 0.1).
	Recovery float64
	// BaselineObs is how many observations seed the behavioral
	// fingerprint before cadence/step/drift/dwell checks arm (default 8).
	BaselineObs int
	// CadenceTolerance is the allowed report-interval ratio band around
	// the learned cadence, [1/tol, tol] (default 8).
	CadenceTolerance float64
	// StepTolerance scales the learned per-feature step envelope; a jump
	// beyond tol × the baseline envelope violates (default 4).
	StepTolerance float64
	// DriftTolerance scales the learned value envelope around the
	// baseline mean; a value beyond tol × the baseline spread violates
	// (default 4).
	DriftTolerance float64
	// StuckAfter is how many consecutive bit-identical observations count
	// as a frozen feed (default 8).
	StuckAfter int
	// DriftExempt lists features excluded from the drift envelope —
	// values that legitimately wander, like the fractional hour of day.
	// Nil defaults to {hour_of_day}; an empty non-nil slice exempts none.
	DriftExempt []sensor.Feature
	// Invariants is the cross-sensor consistency table; nil defaults to
	// DefaultInvariants(). An empty non-nil slice disables the table.
	Invariants []Invariant
	// Metrics, when non-nil, exports per-source score gauges (×1000) and
	// per-(source, rule) violation counters. Series are pre-registered so
	// the observation path never builds a label set.
	Metrics *obs.Registry
}

// SourceTrust is one source's row in a trust report.
type SourceTrust struct {
	Name         string  `json:"name"`
	Required     bool    `json:"required"`
	Score        float64 `json:"score"`
	LowTrust     bool    `json:"low_trust"`
	Observations uint64  `json:"observations"`
	Violations   uint64  `json:"violations"`
}

// featState is the learned behavior of one feature of one source.
type featState struct {
	// Baseline accumulators (first BaselineObs observations).
	min, max, sum float64
	n             int
	maxStep       float64
	// last is the newest numeric value seen (valid when has).
	last float64
	has  bool
	// Frozen fingerprint, derived when the source's baseline completes.
	mean, spread, stepLimit float64
}

// sourceState holds one source's mutable trust state. Score and the
// low-trust flag are mirrored into atomics for the lock-free read side;
// everything else is guarded by the engine mutex.
type sourceState struct {
	name     string
	required bool

	score atomic.Uint64 // math.Float64bits of the score
	low   atomic.Uint32 // 1 when score < threshold

	obs        uint64
	violations uint64
	// last holds the newest event time seen (At) and the values of the
	// latest observation that carried any; Observe overwrites its
	// entries in place.
	last     sensor.Snapshot
	stuckRun int
	// interval baseline: sum/count of deltas between timestamped
	// observations, frozen into meanInterval at baseline completion.
	intervalSum  float64
	intervalN    int
	meanInterval float64
	// feats holds the per-feature fingerprint state by ordinal, so it is
	// bounded by the vocabulary; nil until the first numeric value, so a
	// source never observed costs no array.
	feats         *[sensor.FeatureLimit]*featState
	baselineReady bool

	scoreGauge *obs.Gauge
	violCount  []*obs.Counter // per rule position, pre-registered
}

// Engine scores a fixed set of sources. Construct with NewEngine; the
// zero value is not usable.
type Engine struct {
	cfg        Config
	invariants []Invariant
	exempt     [sensor.FeatureLimit]bool
	byName     map[string]int
	sources    []*sourceState

	mu sync.Mutex // serialises Observe
}

// NewEngine validates the configuration and builds an engine with every
// source at full trust.
func NewEngine(cfg Config, sources ...SourceConfig) (*Engine, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("trust: engine needs at least one source")
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 0.5
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("trust: threshold %v outside (0,1)", cfg.Threshold)
	}
	if cfg.Decay == 0 {
		cfg.Decay = 0.7
	}
	if cfg.Decay <= 0 || cfg.Decay >= 1 {
		return nil, fmt.Errorf("trust: decay %v outside (0,1)", cfg.Decay)
	}
	if cfg.Recovery == 0 {
		cfg.Recovery = 0.1
	}
	if cfg.Recovery < 0 || cfg.Recovery > 1 {
		return nil, fmt.Errorf("trust: recovery %v outside [0,1]", cfg.Recovery)
	}
	if cfg.BaselineObs <= 0 {
		cfg.BaselineObs = 8
	}
	if cfg.CadenceTolerance == 0 {
		cfg.CadenceTolerance = 8
	}
	if cfg.CadenceTolerance <= 1 {
		return nil, fmt.Errorf("trust: cadence tolerance %v must exceed 1", cfg.CadenceTolerance)
	}
	if cfg.StepTolerance == 0 {
		cfg.StepTolerance = 4
	}
	if cfg.StepTolerance <= 1 {
		return nil, fmt.Errorf("trust: step tolerance %v must exceed 1", cfg.StepTolerance)
	}
	if cfg.DriftTolerance == 0 {
		cfg.DriftTolerance = 4
	}
	if cfg.DriftTolerance <= 1 {
		return nil, fmt.Errorf("trust: drift tolerance %v must exceed 1", cfg.DriftTolerance)
	}
	if cfg.StuckAfter <= 0 {
		cfg.StuckAfter = 8
	}
	if cfg.DriftExempt == nil {
		cfg.DriftExempt = []sensor.Feature{sensor.FeatHour}
	}
	invariants := cfg.Invariants
	if invariants == nil {
		invariants = DefaultInvariants()
	}
	for i, iv := range invariants {
		if err := iv.validate(); err != nil {
			return nil, fmt.Errorf("trust: invariant %d: %w", i, err)
		}
	}
	e := &Engine{
		cfg:        cfg,
		invariants: invariants,
		byName:     make(map[string]int, len(sources)),
		sources:    make([]*sourceState, 0, len(sources)),
	}
	for _, f := range cfg.DriftExempt {
		if !f.Valid() {
			return nil, fmt.Errorf("trust: drift-exempt %v is not a vocabulary feature", f)
		}
		e.exempt[f] = true
	}
	var scoreVec *obs.GaugeVec
	var violVec *obs.CounterVec
	if cfg.Metrics != nil {
		scoreVec = cfg.Metrics.NewGaugeVec(metricScore,
			"Per-source trust score scaled to 0..1000 (1000 = fully trusted).",
			"source")
		violVec = cfg.Metrics.NewCounterVec(metricViolations,
			"Trust violations per source and rule (behavioral fingerprint rules plus invariant names).",
			"source", "rule")
	}
	for i, sc := range sources {
		if sc.Name == "" {
			return nil, fmt.Errorf("trust: source %d has no name", i)
		}
		if _, dup := e.byName[sc.Name]; dup {
			return nil, fmt.Errorf("trust: duplicate source %q", sc.Name)
		}
		st := &sourceState{
			name:     sc.Name,
			required: sc.Required,
		}
		st.score.Store(math.Float64bits(1))
		if cfg.Metrics != nil {
			st.scoreGauge = scoreVec.With(sc.Name)
			st.scoreGauge.Set(1000)
			st.violCount = make([]*obs.Counter, 0, numFingerprintRules+len(invariants))
			for _, r := range fingerprintRules {
				st.violCount = append(st.violCount, violVec.With(sc.Name, r))
			}
			for _, iv := range invariants {
				st.violCount = append(st.violCount, violVec.With(sc.Name, iv.Name))
			}
		}
		e.byName[sc.Name] = i
		e.sources = append(e.sources, st)
	}
	return e, nil
}

// Len returns the number of declared sources.
func (e *Engine) Len() int { return len(e.sources) }

// Index resolves a source name to its engine index.
func (e *Engine) Index(name string) (int, bool) {
	i, ok := e.byName[name]
	return i, ok
}

// Sources lists the declared source names, in declaration order.
func (e *Engine) Sources() []string {
	out := make([]string, len(e.sources))
	for i, s := range e.sources {
		out[i] = s.name
	}
	return out
}

// TrustedIdx reports whether source i's score is at or above the
// threshold. The hot read: one atomic load, no locks, no allocation.
//
//iot:hotpath
//iot:failclosed
func (e *Engine) TrustedIdx(i int) bool {
	return e.sources[i].low.Load() == 0
}

// ScoreIdx returns source i's current score.
//
//iot:hotpath
func (e *Engine) ScoreIdx(i int) float64 {
	return math.Float64frombits(e.sources[i].score.Load())
}

// Score returns the named source's score; ok is false for unknown names.
func (e *Engine) Score(name string) (float64, bool) {
	i, ok := e.byName[name]
	if !ok {
		return 0, false
	}
	return e.ScoreIdx(i), true
}

// Trusted reports whether the named source is at or above the threshold;
// unknown sources report false.
//
//iot:failclosed
func (e *Engine) Trusted(name string) bool {
	i, ok := e.byName[name]
	return ok && e.TrustedIdx(i)
}

// LowTrustRequired reports whether any required source is currently
// below the trust threshold — the health-degradation predicate.
//
//iot:failclosed
func (e *Engine) LowTrustRequired() bool {
	for _, s := range e.sources {
		if s.required && s.low.Load() != 0 {
			return true
		}
	}
	return false
}

// Report returns every source's trust row, in declaration order.
func (e *Engine) Report() []SourceTrust {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SourceTrust, len(e.sources))
	for i, s := range e.sources {
		out[i] = SourceTrust{
			Name:         s.name,
			Required:     s.required,
			Score:        math.Float64frombits(s.score.Load()),
			LowTrust:     s.low.Load() != 0,
			Observations: s.obs,
			Violations:   s.violations,
		}
	}
	return out
}

// Observe scores one observation from the named source: a poll result or
// a pushed delta, stamped with its event time (zero disables the timing
// checks for this observation). Each violation decays the score once and
// counts under its rule; the observation records counts, not text, so a
// violating push allocates no more than a clean one. Unknown sources are
// ignored.
//
// Observe serialises on the engine mutex; callers on decision paths
// should observe from their write side (collect bookkeeping, store
// publish) and keep reads on the atomic accessors.
//
//iot:hotpath
func (e *Engine) Observe(source string, snap sensor.Snapshot, at time.Time) {
	if i, ok := e.byName[source]; ok {
		e.ObserveIdx(i, snap, at)
	}
}

// ObserveIdx is Observe for source i, the index Index resolves: the
// front end that holds a source's index scores it without keeping or
// looking up its name.
//
//iot:hotpath
func (e *Engine) ObserveIdx(i int, snap sensor.Snapshot, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.sources[i]
	before := s.violations

	// Timing fingerprint: replay first (active from the second
	// observation), then cadence once the baseline interval is learned.
	timed := !at.IsZero()
	if timed && !s.last.At.IsZero() {
		if at.Before(s.last.At) {
			s.violate(posReplay)
		} else if dt := at.Sub(s.last.At).Seconds(); dt > 0 {
			if s.baselineReady && s.meanInterval > 0 {
				ratio := dt / s.meanInterval
				if ratio > e.cfg.CadenceTolerance || ratio < 1/e.cfg.CadenceTolerance {
					s.violate(posCadence)
				}
			}
			if !s.baselineReady {
				s.intervalSum += dt
				s.intervalN++
			}
		}
	}

	// Per-feature value fingerprint, in sorted feature order so the
	// violation counts and the score trajectory are scheduling-independent.
	//iot:allow hotalloc the closure does not escape Range, so it stays on the stack; TestObserveViolatingPushAllocs counts 0 allocs
	snap.Range(func(f sensor.Feature, v sensor.Value) bool {
		if v.IsZero() {
			s.violate(posMalformed)
			return true
		}
		num, isNum := v.Numeric()
		if !isNum {
			return true
		}
		if math.IsNaN(num) || math.IsInf(num, 0) {
			s.violate(posMalformed)
			return true
		}
		if s.feats == nil {
			s.feats = new([sensor.FeatureLimit]*featState)
		}
		fs := s.feats[f]
		if fs == nil {
			fs = &featState{min: num, max: num}
			s.feats[f] = fs
		}
		if s.baselineReady && fs.n > 0 {
			// A feature must have contributed to the baseline to be
			// judged against it; late-appearing features only learn.
			if fs.has && math.Abs(num-fs.last) > fs.stepLimit {
				s.violate(posStep)
			}
			if !e.exempt[f] && math.Abs(num-fs.mean) > e.cfg.DriftTolerance*fs.spread {
				s.violate(posDrift)
			}
		}
		if !s.baselineReady {
			if fs.n == 0 {
				fs.min, fs.max = num, num
			} else {
				fs.min = math.Min(fs.min, num)
				fs.max = math.Max(fs.max, num)
			}
			if fs.has {
				fs.maxStep = math.Max(fs.maxStep, math.Abs(num-fs.last))
			}
			fs.sum += num
			fs.n++
		}
		fs.last = num
		fs.has = true
		return true
	})

	// Dwell fingerprint: a feed frozen bit-identical for too long is a
	// stuck-at spoof (or a dead cache — either way, not live physics).
	// Armed from the first observation: a source stuck from birth is
	// exactly as suspect as one that froze later.
	if snap.Len() > 0 && identicalValues(snap, s.last) {
		s.stuckRun++
		if s.stuckRun >= e.cfg.StuckAfter {
			s.violate(posStuck)
		}
	} else {
		s.stuckRun = 0
	}

	// Cross-sensor invariant table, in declaration order.
	for k, iv := range e.invariants {
		if iv.Eval(s.last, snap) {
			s.violate(numFingerprintRules + k)
		}
	}

	// Score update: every violation decays multiplicatively; a fully
	// clean post-baseline observation recovers a fraction of the gap.
	// Violations never increase the score, so a violating stream's
	// trajectory is monotone non-increasing.
	score := math.Float64frombits(s.score.Load())
	if s.violations > before {
		for n := before; n < s.violations; n++ {
			score *= e.cfg.Decay
		}
	} else if s.baselineReady {
		score += e.cfg.Recovery * (1 - score)
	}
	if score < 0 {
		score = 0
	}
	if score > 1 {
		score = 1
	}
	s.score.Store(math.Float64bits(score))
	if score < e.cfg.Threshold {
		s.low.Store(1)
	} else {
		s.low.Store(0)
	}
	if s.scoreGauge != nil {
		s.scoreGauge.Set(int64(math.Round(score * 1000)))
	}

	// Advance the observation state.
	if timed && at.After(s.last.At) {
		s.last.At = at
	}
	if snap.Len() > 0 {
		s.last.SetValues(snap) //iot:allow hotcall allocates only for a scene wider than any the source pushed before, so at most the vocabulary's width
	}
	s.obs++
	if !s.baselineReady && s.obs >= uint64(e.cfg.BaselineObs) {
		s.freezeBaseline(e.cfg.StepTolerance)
	}
}

// violate counts one violation of the rule at position r.
func (s *sourceState) violate(r int) {
	s.violations++
	if s.violCount != nil {
		s.violCount[r].Inc()
	}
}

// freezeBaseline derives the fingerprint envelopes from the accumulated
// baseline statistics; called once, under the engine mutex.
func (s *sourceState) freezeBaseline(stepTol float64) {
	if s.intervalN > 0 {
		s.meanInterval = s.intervalSum / float64(s.intervalN)
	}
	var feats [sensor.FeatureLimit]*featState
	if s.feats != nil {
		feats = *s.feats
	}
	for _, fs := range feats {
		if fs == nil || fs.n == 0 {
			continue
		}
		fs.mean = fs.sum / float64(fs.n)
		fs.spread = fs.max - fs.min
		// Floors keep a flat baseline from arming hair-trigger envelopes:
		// a constant feature still tolerates jitter proportional to its
		// magnitude (or an absolute minimum for near-zero values).
		floor := math.Max(0.01*math.Abs(fs.mean), 0.05)
		if fs.spread < floor {
			fs.spread = floor
		}
		step := math.Max(fs.maxStep, fs.spread)
		fs.stepLimit = stepTol * step
	}
	s.baselineReady = true
}

// identicalValues reports whether two snapshots carry exactly the same
// features with exactly equal values. It walks both in feature order with
// cursors, so it needs no closure.
func identicalValues(a, b sensor.Snapshot) bool {
	if a.Len() != b.Len() {
		return false
	}
	ca, cb := a.Cursor(), b.Cursor()
	for f := sensor.Feature(1); f < sensor.FeatureLimit; f++ {
		av, aok := ca.Seek(f)
		bv, bok := cb.Seek(f)
		if aok != bok || !av.Equal(bv) {
			return false
		}
	}
	return true
}
