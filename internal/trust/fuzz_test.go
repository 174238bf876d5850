package trust

import (
	"math"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// fuzzFeature maps a fuzzed name to a feature: its vocabulary feature,
// or for any other name an ordinal drawn from its bytes, which may fall
// outside the vocabulary.
func fuzzFeature(name string) sensor.Feature {
	if f, ok := sensor.ParseFeature(name); ok {
		return f
	}
	var h uint8
	for i := 0; i < len(name); i++ {
		h = h*31 + name[i]
	}
	return sensor.Feature(h)
}

// setValid sets f on s when f is in the vocabulary: a snapshot holds no
// other feature, since the wire decoders reject unknown names.
func setValid(s *sensor.Snapshot, f sensor.Feature, v sensor.Value) {
	if f.Valid() {
		s.Set(f, v)
	}
}

// fuzzSnapshots decodes the shared fuzz argument tuple into an
// adversarial (previous, current) snapshot pair: two feature names the
// fuzzer may mutate into other features or garbage strings, two numeric
// values it may drive to NaN/Inf, a boolean pair, and raw nanosecond
// timestamps (zero stays the zero time).
func fuzzSnapshots(fa, fb string, va, vb float64, ba, bb bool, atPrev, atCur int64) (sensor.Snapshot, sensor.Snapshot) {
	ts := func(n int64) time.Time {
		if n == 0 {
			return time.Time{}
		}
		return time.Unix(0, n)
	}
	prev := sensor.Snapshot{At: ts(atPrev)}
	setValid(&prev, fuzzFeature(fa), sensor.Number(va))
	setValid(&prev, fuzzFeature(fb), sensor.Bool(ba))
	prev.Set(sensor.FeatOccupancy, sensor.Bool(bb))
	cur := sensor.Snapshot{At: ts(atCur)}
	setValid(&cur, fuzzFeature(fa), sensor.Number(vb))
	setValid(&cur, fuzzFeature(fb), sensor.Bool(bb))
	cur.Set(sensor.FeatMotion, sensor.Bool(ba))
	cur.Set(sensor.FeatAirQuality, sensor.Value{}) // absent (null) value
	return prev, cur
}

// FuzzInvariants drives the invariant-table evaluator over adversarial
// snapshot pairs. The evaluator must be total (no panics on NaN/Inf,
// unknown features, absent values, zero timestamps), must pair every
// firing with a non-empty detail, and must be a pure function of its
// inputs.
func FuzzInvariants(f *testing.F) {
	f.Add("temperature_in", "motion", 22.5, -300.0, true, false, int64(0), int64(0))
	f.Add("air_quality", "occupancy", math.NaN(), math.Inf(1), false, true, int64(1_600_000_000), int64(1))
	f.Add("humidity", "not_a_feature", -5.0, 150.0, true, true, int64(-1), int64(0))
	f.Add("hour_of_day", "window_open", 23.9, 24.1, false, false, int64(0), int64(7))
	f.Fuzz(func(t *testing.T, fa, fb string, va, vb float64, ba, bb bool, atPrev, atCur int64) {
		prev, cur := fuzzSnapshots(fa, fb, va, vb, ba, bb, atPrev, atCur)
		table := append(DefaultInvariants(),
			Invariant{Name: "fuzz_step", Kind: MaxStep, Feature: fuzzFeature(fa), Limit: 1},
			Invariant{Name: "fuzz_range", Kind: Range, Feature: fuzzFeature(fa), Min: -1, Max: 1},
			Invariant{Name: "fuzz_contra", Kind: Contradiction, A: fuzzFeature(fb), B: sensor.FeatMotion},
		)
		for _, iv := range table {
			violated, detail := iv.Eval(prev, cur)
			if violated && detail == "" {
				t.Fatalf("invariant %s fired without detail", iv.Name)
			}
			if v2, d2 := iv.Eval(prev, cur); v2 != violated || d2 != detail {
				t.Fatalf("invariant %s not deterministic: (%v,%q) vs (%v,%q)", iv.Name, violated, detail, v2, d2)
			}
		}
	})
}

// FuzzObserve drives a whole engine over an adversarial two-observation
// stream: the score must stay a finite number in [0,1], the atomics must
// agree with the threshold, and two engines fed the same stream must
// land on bit-identical scores.
func FuzzObserve(f *testing.F) {
	f.Add("temperature_in", "motion", 22.5, math.NaN(), true, false, int64(0), int64(0))
	f.Add("air_quality", "ghost_feature", math.Inf(-1), -40.0, false, true, int64(2), int64(1))
	f.Add("power_draw", "occupancy", 1e308, -1e308, true, true, int64(1_600_000_000_000_000_000), int64(1_600_000_000_000_000_001))
	f.Fuzz(func(t *testing.T, fa, fb string, va, vb float64, ba, bb bool, atPrev, atCur int64) {
		prev, cur := fuzzSnapshots(fa, fb, va, vb, ba, bb, atPrev, atCur)
		run := func() float64 {
			e, err := NewEngine(Config{BaselineObs: 1}, SourceConfig{Name: "sim", Required: true})
			if err != nil {
				t.Fatal(err)
			}
			e.Observe("sim", prev, prev.At)
			e.Observe("sim", cur, cur.At)
			sc, _ := e.Score("sim")
			if math.IsNaN(sc) || sc < 0 || sc > 1 {
				t.Fatalf("score degenerated to %v", sc)
			}
			idx, _ := e.Index("sim")
			if e.TrustedIdx(idx) != (sc >= e.cfg.Threshold) {
				t.Fatalf("trusted flag disagrees with score %v (threshold %v)", sc, e.cfg.Threshold)
			}
			return sc
		}
		a, b := run(), run()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("same stream, different scores: %x vs %x", math.Float64bits(a), math.Float64bits(b))
		}
	})
}
