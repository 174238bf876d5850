package trust

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// violating returns a snapshot guaranteed to break at least one range
// invariant, with seeded variety in which rule fires and what else rides
// along.
func violating(rng *rand.Rand, i int) (sensor.Snapshot, time.Time) {
	s, at := steady(i)
	switch rng.Intn(4) {
	case 0:
		s.Set(sensor.FeatAirQuality, sensor.Number(-1-rng.Float64()*100))
	case 1:
		s.Set(sensor.FeatHumidity, sensor.Number(101+rng.Float64()*50))
	case 2:
		s.Set(sensor.FeatTempIndoor, sensor.Number(200+rng.Float64()*100))
	default:
		s.Set(sensor.FeatOccupancy, sensor.Bool(false))
		s.Set(sensor.FeatMotion, sensor.Bool(true))
	}
	return s, at
}

// TestScoreMonotoneUnderViolations: as long as every observation
// violates, the score trajectory never increases — recovery must not
// leak into dirty observations. Property-checked over seeded streams.
func TestScoreMonotoneUnderViolations(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t, Config{BaselineObs: 2})
		prev := 1.0
		for i := 0; i < 64; i++ {
			s, at := violating(rng, i)
			v := e.Observe("sim", s, at)
			if len(v) == 0 {
				t.Fatalf("seed %d step %d: intended violation not detected", seed, i)
			}
			cur, _ := e.Score("sim")
			if cur > prev {
				t.Fatalf("seed %d step %d: score rose %v -> %v under violations", seed, i, prev, cur)
			}
			if cur < 0 || cur > 1 {
				t.Fatalf("seed %d step %d: score %v outside [0,1]", seed, i, cur)
			}
			prev = cur
		}
	}
}

// TestScoreRecoversUnderCleanStream: from any violated state, a clean
// stream monotonically climbs back above the threshold (and never past
// 1). The violations are replays — clean values with backwards
// timestamps — so the bad phase leaves no numeric discontinuity for the
// clean phase to trip over.
func TestScoreRecoversUnderCleanStream(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEngine(t, Config{BaselineObs: 2, Recovery: 0.1})
		warm(e, 4)
		nBad := 6 + rng.Intn(6)
		for i := 4; i < nBad; i++ {
			s, _ := steady(i)
			v := e.Observe("sim", s, t0.Add(-time.Duration(i+1)*5*time.Second))
			if !hasRule(v, RuleReplay) {
				t.Fatalf("seed %d: replay step %d not flagged: %+v", seed, i, v)
			}
		}
		low, _ := e.Score("sim")
		prev := low
		for i := nBad; i < nBad+200; i++ {
			s, at := steady(i)
			if v := e.Observe("sim", s, at); len(v) != 0 {
				t.Fatalf("seed %d: clean step %d violated: %+v", seed, i, v)
			}
			cur, _ := e.Score("sim")
			if cur < prev {
				t.Fatalf("seed %d step %d: score fell %v -> %v on clean stream", seed, i, prev, cur)
			}
			if cur > 1 {
				t.Fatalf("seed %d: score %v past 1", seed, cur)
			}
			prev = cur
		}
		final, _ := e.Score("sim")
		if final <= low || final < e.cfg.Threshold {
			t.Fatalf("seed %d: clean stream recovered %v -> %v (threshold %v)", seed, low, final, e.cfg.Threshold)
		}
	}
}

// TestScoreFloorAtZero: even absurd violation counts keep the score a
// finite non-negative float (multiplicative decay underflows gracefully).
func TestScoreFloorAtZero(t *testing.T) {
	e := newTestEngine(t, Config{BaselineObs: 2})
	s, _ := steady(0)
	s.Set(sensor.FeatAirQuality, sensor.Number(-1))
	for i := 0; i < 20_000; i++ {
		e.Observe("sim", s, t0.Add(time.Duration(i)*time.Second))
	}
	sc, _ := e.Score("sim")
	if math.IsNaN(sc) || sc < 0 {
		t.Fatalf("score degenerated to %v", sc)
	}
}
