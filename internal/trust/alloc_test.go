package trust

import (
	"testing"

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
		if v := e.Observe("sim", s, s.At); len(v) != 0 {
			t.Fatalf("clean push violated: %v", v)
		}
	})
	if allocs != 0 {
		t.Fatalf("a clean push allocates %.1f/op in Observe, want 0", allocs)
	}
}
