package trust

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// adversarialStream returns a seeded stream of n observations that mixes
// clean scenes with replayed, stepped, drifted, null/NaN, frozen,
// invariant-breaking, off-cadence and unstamped ones. The first scenes
// are clean so the baseline is learned from honest physics.
func adversarialStream(seed int64, n int) []sensor.Snapshot {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sensor.Snapshot, 0, n)
	clock := t0
	var last sensor.Snapshot
	frozen := 0
	for i := 0; len(out) < n; i++ {
		clock = clock.Add(5 * time.Second)
		if frozen > 0 {
			frozen--
			s := last.Clone()
			s.At = clock
			out = append(out, s)
			continue
		}
		s, _ := steady(i)
		s.At = clock
		if i >= 12 {
			switch rng.Intn(40) {
			case 0: // replayed: stamped behind the newest report
				s.At = clock.Add(-time.Duration(1+rng.Intn(600)) * time.Second)
			case 1: // stepped: an impossible jump
				s.Set(sensor.FeatAirQuality, sensor.Number(300+rng.Float64()*150))
			case 2: // drifted: off the learned mean by less than a step
				s.Set(sensor.FeatHumidity, sensor.Number(45+4+rng.Float64()*6))
			case 3: // malformed: NaN or null
				if rng.Intn(2) == 0 {
					s.Set(sensor.FeatTempIndoor, sensor.Number(math.NaN()))
				} else {
					s.Set(sensor.FeatHumidity, sensor.Value{})
				}
			case 4: // frozen: the previous scene repeated bit-identical
				frozen = 1 + rng.Intn(12)
				if last.Len() > 0 {
					s = last.Clone()
					s.At = clock
				}
			case 5: // invariant-breaking
				v, _ := violating(rng, i)
				v.At = clock
				s = v
			case 6: // unstamped
				s.At = time.Time{}
			case 7: // off cadence: a long silence
				clock = clock.Add(time.Duration(5+rng.Intn(20)) * time.Minute)
				s.At = clock
			}
		}
		last = s
		out = append(out, s)
	}
	return out
}

// trajectoryDigest feeds the stream to a registry-backed engine and folds
// each observation's score bits and per-rule counter deltas, rule by rule
// in counter order, into an FNV-64a digest. It also returns the final
// per-rule counts.
func trajectoryDigest(t *testing.T, stream []sensor.Snapshot) (uint64, []uint64) {
	t.Helper()
	e := newTestEngine(t, Config{})
	h := fnv.New64a()
	var buf [8]byte
	prev := ruleCounts(e)
	for _, s := range stream {
		e.Observe("sim", s, s.At)
		sc, _ := e.Score("sim")
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sc))
		h.Write(buf[:])
		cur := ruleCounts(e)
		for r := range cur {
			binary.LittleEndian.PutUint64(buf[:], cur[r]-prev[r])
			h.Write(buf[:])
		}
		prev = cur
	}
	return h.Sum64(), prev
}

// TestTrajectoryGolden pins the score trajectory and per-rule counts of a
// seeded adversarial stream. The digest was computed when Observe still
// built a violation report per push, so it holds the engine to that
// engine's scores and counts bit for bit.
func TestTrajectoryGolden(t *testing.T) {
	const want = uint64(0x9b865d143b40fa58)
	got, counts := trajectoryDigest(t, adversarialStream(30, 2000))
	for r, rule := range fingerprintRules {
		if counts[r] == 0 {
			t.Errorf("the stream never broke %s", rule)
		}
	}
	if got != want {
		t.Fatalf("trajectory digest = %#016x, want %#016x", got, want)
	}
}
