package trust

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsid/internal/obs"
	"iotsid/internal/sensor"
)

// t0 anchors every test stream on a fixed simulated clock.
var t0 = time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)

// steady returns a believable indoor snapshot at step i of a 5s-cadence
// stream: small bounded jitter around fixed operating points, so a clean
// stream never violates the default fingerprint or invariant table.
func steady(i int) (sensor.Snapshot, time.Time) {
	at := t0.Add(time.Duration(i) * 5 * time.Second)
	s := sensor.NewSnapshot(at)
	s.Set(sensor.FeatTempIndoor, sensor.Number(22+0.3*math.Sin(float64(i))))
	s.Set(sensor.FeatAirQuality, sensor.Number(60+2*math.Cos(float64(i))))
	s.Set(sensor.FeatHumidity, sensor.Number(45+math.Sin(float64(i)/2)))
	s.Set(sensor.FeatMotion, sensor.Bool(i%3 == 0))
	s.Set(sensor.FeatOccupancy, sensor.Bool(true))
	return s, at
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg, SourceConfig{Name: "sim", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// warm feeds n clean observations.
func warm(e *Engine, n int) {
	for i := 0; i < n; i++ {
		s, at := steady(i)
		e.Observe("sim", s, at)
	}
}

func TestNewEngineValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		sources []SourceConfig
	}{
		{"no sources", Config{}, nil},
		{"empty name", Config{}, []SourceConfig{{Name: ""}}},
		{"duplicate", Config{}, []SourceConfig{{Name: "a"}, {Name: "a"}}},
		{"bad threshold", Config{Threshold: 1.5}, []SourceConfig{{Name: "a"}}},
		{"bad decay", Config{Decay: 1}, []SourceConfig{{Name: "a"}}},
		{"bad recovery", Config{Recovery: 2}, []SourceConfig{{Name: "a"}}},
		{"bad cadence tol", Config{CadenceTolerance: 0.5}, []SourceConfig{{Name: "a"}}},
		{"bad step tol", Config{StepTolerance: 0.5}, []SourceConfig{{Name: "a"}}},
		{"bad drift tol", Config{DriftTolerance: 0.5}, []SourceConfig{{Name: "a"}}},
		{"bad invariant", Config{Invariants: []Invariant{{Name: "x", Kind: MaxStep}}}, []SourceConfig{{Name: "a"}}},
		{"nameless invariant", Config{Invariants: []Invariant{{Kind: Range, Feature: sensor.FeatHumidity}}}, []SourceConfig{{Name: "a"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEngine(tc.cfg, tc.sources...); err == nil {
				t.Fatalf("NewEngine accepted invalid input")
			}
		})
	}
}

func TestCleanStreamStaysTrusted(t *testing.T) {
	e := newTestEngine(t, Config{})
	for i := 0; i < 64; i++ {
		s, at := steady(i)
		if v := e.Observe("sim", s, at); len(v) != 0 {
			t.Fatalf("clean observation %d violated: %+v", i, v)
		}
	}
	if sc, _ := e.Score("sim"); sc != 1 {
		t.Fatalf("clean stream score = %v, want 1", sc)
	}
	if !e.Trusted("sim") || e.LowTrustRequired() {
		t.Fatal("clean stream lost trust")
	}
}

func TestUnknownSourceIgnored(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, at := steady(0)
	if v := e.Observe("ghost", s, at); v != nil {
		t.Fatalf("unknown source produced violations: %+v", v)
	}
	if _, ok := e.Score("ghost"); ok {
		t.Fatal("Score resolved an unknown source")
	}
	if e.Trusted("ghost") {
		t.Fatal("unknown source reported trusted")
	}
}

func TestReplayViolation(t *testing.T) {
	e := newTestEngine(t, Config{})
	warm(e, 4)
	s, _ := steady(4)
	v := e.Observe("sim", s, t0.Add(-time.Minute))
	if !hasRule(v, RuleReplay) {
		t.Fatalf("replayed timestamp not flagged: %+v", v)
	}
	if sc, _ := e.Score("sim"); sc >= 1 {
		t.Fatalf("replay did not decay score: %v", sc)
	}
}

func TestCadenceViolation(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 6, CadenceTolerance: 4})
	warm(e, 8)
	// 5s learned cadence; a 10-minute gap is a 120x ratio.
	s, _ := steady(8)
	v := e.Observe("sim", s, t0.Add(8*5*time.Second+10*time.Minute))
	if !hasRule(v, RuleCadence) {
		t.Fatalf("off-cadence report not flagged: %+v", v)
	}
}

func TestStepViolation(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 6})
	warm(e, 8)
	s, at := steady(8)
	s.Set(sensor.FeatAirQuality, sensor.Number(400)) // baseline jitters around 60±2
	v := e.Observe("sim", s, at)
	if !hasRule(v, RuleStep) {
		t.Fatalf("spike not flagged as step violation: %+v", v)
	}
}

func TestDriftViolation(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 6, StepTolerance: 100, DriftTolerance: 3})
	warm(e, 8)
	// Creep far out of the learned envelope in steps small enough to pass
	// the (deliberately loosened) step check: only drift can catch this.
	cur := 60.0
	var last []Violation
	for i := 8; i < 40; i++ {
		cur += 1.5
		s, at := steady(i)
		s.Set(sensor.FeatAirQuality, sensor.Number(cur))
		last = e.Observe("sim", s, at)
		if hasRule(last, RuleDrift) {
			return
		}
	}
	t.Fatalf("slow drift to %v never flagged; last violations %+v", cur, last)
}

func TestStuckViolation(t *testing.T) {
	e := newTestEngine(t, Config{StuckAfter: 4})
	s, _ := steady(0)
	var v []Violation
	for i := 0; i < 8; i++ {
		v = e.Observe("sim", s, t0.Add(time.Duration(i)*5*time.Second))
	}
	if !hasRule(v, RuleStuck) {
		t.Fatalf("frozen feed not flagged: %+v", v)
	}
}

func TestMalformedValues(t *testing.T) {
	e := newTestEngine(t, Config{})
	s, at := steady(0)
	s.Set(sensor.FeatTempIndoor, sensor.Number(math.NaN()))
	s.Set(sensor.FeatHumidity, sensor.Value{})
	v := e.Observe("sim", s, at)
	n := 0
	for _, viol := range v {
		if viol.Rule == RuleMalformed {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("NaN + null produced %d malformed violations, want 2: %+v", n, v)
	}
}

func TestInvariantViolationsDecayScore(t *testing.T) {
	e := newTestEngine(t, Config{Decay: 0.7})
	s, at := steady(0)
	s.Set(sensor.FeatAirQuality, sensor.Number(-5)) // aqi_range
	s.Set(sensor.FeatOccupancy, sensor.Bool(false))
	s.Set(sensor.FeatMotion, sensor.Bool(true)) // occupancy_motion
	v := e.Observe("sim", s, at)
	if !hasRule(v, "aqi_range") || !hasRule(v, "occupancy_motion") {
		t.Fatalf("invariant table missed violations: %+v", v)
	}
	want := 0.7 * 0.7
	if sc, _ := e.Score("sim"); math.Abs(sc-want) > 1e-12 {
		t.Fatalf("score after 2 violations = %v, want %v", sc, want)
	}
}

func TestThresholdCrossingFailsTrust(t *testing.T) {
	e := newTestEngine(t, Config{Threshold: 0.5, Decay: 0.7})
	bad, _ := steady(0)
	bad.Set(sensor.FeatAirQuality, sensor.Number(-1))
	for i := 0; i < 2; i++ {
		e.Observe("sim", bad, t0.Add(time.Duration(i)*5*time.Second))
	}
	// 0.7^2 = 0.49 < 0.5.
	if e.Trusted("sim") {
		t.Fatal("source still trusted below threshold")
	}
	if idx, _ := e.Index("sim"); e.TrustedIdx(idx) {
		t.Fatal("TrustedIdx disagrees with Trusted")
	}
	if !e.LowTrustRequired() {
		t.Fatal("LowTrustRequired missed the required low-trust source")
	}
	rep := e.Report()
	if len(rep) != 1 || !rep[0].LowTrust || rep[0].Violations != 2 || rep[0].Observations != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestRecoveryAfterCleanStream(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 4, Recovery: 0.2})
	warm(e, 6)
	bad, at := steady(6)
	bad.Set(sensor.FeatAirQuality, sensor.Number(-1))
	e.Observe("sim", bad, at)
	low, _ := e.Score("sim")
	for i := 7; i < 40; i++ {
		s, at := steady(i)
		e.Observe("sim", s, at)
	}
	high, _ := e.Score("sim")
	if high <= low {
		t.Fatalf("clean stream did not recover score: %v -> %v", low, high)
	}
	if high > 1 {
		t.Fatalf("score recovered past 1: %v", high)
	}
}

func TestLateFeatureOnlyLearns(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 4})
	warm(e, 6)
	// A feature first seen after the baseline froze has no envelope; it
	// must not fire step/drift on arrival or on its next wild move.
	s, at := steady(6)
	s.Set(sensor.FeatIlluminance, sensor.Number(500))
	if v := e.Observe("sim", s, at); len(v) != 0 {
		t.Fatalf("late feature arrival violated: %+v", v)
	}
	s2, at2 := steady(7)
	s2.Set(sensor.FeatIlluminance, sensor.Number(50_000))
	if v := e.Observe("sim", s2, at2); len(v) != 0 {
		t.Fatalf("late feature move violated: %+v", v)
	}
}

func TestZeroTimestampSkipsTimingChecks(t *testing.T) {
	e := newTestEngine(t, Config{})
	warm(e, 4)
	s, _ := steady(4)
	if v := e.Observe("sim", s, time.Time{}); hasRule(v, RuleReplay) || hasRule(v, RuleCadence) {
		t.Fatalf("zero timestamp ran timing checks: %+v", v)
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := NewEngine(Config{Metrics: reg, Decay: 0.5}, SourceConfig{Name: "sim", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	bad, at := steady(0)
	bad.Set(sensor.FeatAirQuality, sensor.Number(-1))
	e.Observe("sim", bad, at)
	expositionContains(t, reg, `iotsid_trust_violations_total{source="sim",rule="aqi_range"} 1`)
	expositionContains(t, reg, `iotsid_trust_score_permille{source="sim"} 500`)
}

// TestDeterministicTrajectory: two engines fed the same stream produce
// bit-identical score trajectories — the property the campaign's
// worker-count invariance rests on.
func TestDeterministicTrajectory(t *testing.T) {
	mk := func() *Engine { return newTestEngine(t, Config{BaselineObs: 4}) }
	a, b := mk(), mk()
	var trajA, trajB []uint64
	for i := 0; i < 64; i++ {
		s, at := steady(i)
		if i%7 == 3 {
			s.Set(sensor.FeatAirQuality, sensor.Number(-float64(i)))
		}
		a.Observe("sim", s, at)
		b.Observe("sim", s, at)
		sa, _ := a.Score("sim")
		sb, _ := b.Score("sim")
		trajA = append(trajA, math.Float64bits(sa))
		trajB = append(trajB, math.Float64bits(sb))
	}
	for i := range trajA {
		if trajA[i] != trajB[i] {
			t.Fatalf("trajectories diverge at step %d: %x vs %x", i, trajA[i], trajB[i])
		}
	}
}

// TestConcurrentObserveAndRead is the engine's -race gate: writers
// observing while readers spin on the atomic accessors.
func TestConcurrentObserveAndRead(t *testing.T) {
	e := newTestEngine(t, Config{})
	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					e.TrustedIdx(0)
					e.ScoreIdx(0)
					e.LowTrustRequired()
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				s, at := steady(i)
				e.Observe("sim", s, at)
				_ = e.Report()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

func hasRule(v []Violation, rule string) bool {
	for _, viol := range v {
		if viol.Rule == rule {
			return true
		}
	}
	return false
}

func expositionContains(t *testing.T, reg *obs.Registry, line string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), line) {
		t.Fatalf("exposition missing %q:\n%s", line, buf.String())
	}
}

// TestEngineStateBoundedByVocabulary: a source's per-feature state is one
// slot per vocabulary ordinal, made on the first numeric observation, so
// no stream of scenes can grow it past the vocabulary. Labels have no
// numeric fingerprint and take no state.
func TestEngineStateBoundedByVocabulary(t *testing.T) {
	e, err := NewEngine(Config{}, SourceConfig{Name: "push", Required: true})
	if err != nil {
		t.Fatal(err)
	}
	s := e.sources[0]
	if s.feats != nil {
		t.Fatal("an engine that observed nothing holds per-feature state")
	}
	for k := 0; k < 64; k++ {
		snap := sensor.NewSnapshotCap(t0.Add(time.Duration(k)*time.Second), sensor.NumFeatures)
		for f := sensor.Feature(1); f < sensor.FeatureLimit; f++ {
			switch sensor.MustDescribe(f).Type {
			case sensor.TypeBool:
				snap.Set(f, sensor.Bool(k%2 == 0))
			case sensor.TypeNumber:
				snap.Set(f, sensor.Number(float64(k%5)))
			default:
				snap.Set(f, sensor.Label(sensor.MustDescribe(f).Labels[0]))
			}
		}
		e.Observe("push", snap, snap.At)
	}
	tracked := 0
	for f, fs := range s.feats {
		if fs == nil {
			continue
		}
		tracked++
		if d := sensor.MustDescribe(sensor.Feature(f)); d.Type == sensor.TypeLabel {
			t.Errorf("label feature %v holds numeric state", d.Feature)
		}
	}
	if want := sensor.NumFeatures - 3; tracked != want {
		t.Fatalf("engine tracks %d features, want the %d numeric and boolean ones", tracked, want)
	}
	if _, err := NewEngine(Config{DriftExempt: []sensor.Feature{sensor.FeatureLimit}}, SourceConfig{Name: "push"}); err == nil {
		t.Fatal("NewEngine accepted a drift exemption outside the vocabulary")
	}
}
