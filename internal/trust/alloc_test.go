package trust

import (
	"math"
	"reflect"
	"testing"
	"time"

	"iotsid/internal/sensor"
)

// TestObserveCleanPushAllocs pins what a clean push costs the trust
// engine once its baseline is frozen: nothing. Observe walks the features
// in place and overwrites the source's last values in the entries they
// already have.
func TestObserveCleanPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 100
	e := newTestEngine(t, Config{})
	warm(e, 64)
	snaps := make([]sensor.Snapshot, runs+1)
	for i := range snaps {
		snaps[i], _ = steady(64 + i)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := snaps[next]
		next++
		e.Observe("sim", s, s.At)
	})
	if v := e.Report()[0].Violations; v != 0 {
		t.Fatalf("the clean pushes violated %d times", v)
	}
	if allocs != 0 {
		t.Fatalf("a clean push allocates %.1f/op in Observe, want 0", allocs)
	}
}

// TestObserveViolatingPushAllocs pins what a violating push costs once the
// baseline is frozen: nothing either, so a spoofing source makes the
// engine do no more allocation than an honest one. Each case pushes a
// scene that breaks the listed rules on every run, checked through the
// per-rule counters.
func TestObserveViolatingPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const runs = 100
	replayed := t0.Add(-time.Hour) // behind every warm-up report
	// hostile is a replayed scene whose air quality and occupancy drift far
	// out of the baseline, that carries a NaN and a null, and that breaks
	// aqi_range, occupancy_motion and (on the NaN) temp_range.
	hostile := func(aqi float64) sensor.Snapshot {
		s, _ := steady(0)
		s.At = replayed
		s.Set(sensor.FeatAirQuality, sensor.Number(aqi))
		s.Set(sensor.FeatTempIndoor, sensor.Number(math.NaN()))
		s.Set(sensor.FeatHumidity, sensor.Value{})
		s.Set(sensor.FeatOccupancy, sensor.Bool(false))
		s.Set(sensor.FeatMotion, sensor.Bool(true))
		return s
	}
	cases := []struct {
		name  string
		scene func(run int) sensor.Snapshot
		rules map[string]uint64 // violations per push
	}{{
		// Alternating between two out-of-range readings steps every push.
		name: "jumping",
		scene: func(run int) sensor.Snapshot {
			if run%2 == 0 {
				return hostile(-300)
			}
			return hostile(900)
		},
		rules: map[string]uint64{RuleReplay: 1, RuleStep: 1, RuleDrift: 2, RuleMalformed: 2, "temp_range": 1, "aqi_range": 1, "occupancy_motion": 1},
	}, {
		// The same scene again and again is frozen; without the NaN it is
		// bit-identical to the last one.
		name: "frozen",
		scene: func(int) sensor.Snapshot {
			s := hostile(-300)
			s.Set(sensor.FeatTempIndoor, sensor.Number(22))
			return s
		},
		rules: map[string]uint64{RuleReplay: 1, RuleStuck: 1, RuleDrift: 2, RuleMalformed: 1, "aqi_range": 1, "occupancy_motion": 1},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{})
			warm(e, 64)
			snaps := make([]sensor.Snapshot, e.cfg.StuckAfter+runs+2)
			for i := range snaps {
				snaps[i] = tc.scene(i)
			}
			next := 0
			push := func() {
				s := snaps[next]
				next++
				e.Observe("sim", s, s.At)
			}
			// Enough pushes for the frozen case to arm the stuck rule.
			for next < e.cfg.StuckAfter {
				push()
			}
			s := snaps[next]
			next++
			if got := observe(t, e, s, s.At); !reflect.DeepEqual(got, tc.rules) {
				t.Fatalf("a %s push fired %v, want %v", tc.name, got, tc.rules)
			}
			var perPush uint64
			for _, n := range tc.rules {
				perPush += n
			}
			before := e.Report()[0].Violations
			allocs := testing.AllocsPerRun(runs, push)
			if got := e.Report()[0].Violations - before; got != (runs+1)*perPush {
				t.Fatalf("%d %s pushes violated %d times, want %d", runs+1, tc.name, got, (runs+1)*perPush)
			}
			if allocs != 0 {
				t.Fatalf("a %s push allocates %.1f/op in Observe, want 0", tc.name, allocs)
			}
		})
	}
}
