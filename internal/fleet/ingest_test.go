package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/epoch"
	"iotsid/internal/obs"
	"iotsid/internal/sensor"
	"iotsid/internal/trust"
)

// seriesValue reads one series' value from a registry's exposition; a
// series the registry does not expose reads as -1.
func seriesValue(t *testing.T, reg *obs.Registry, series string) int {
	t.Helper()
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return n
		}
	}
	return -1
}

// sceneValues renders a snapshot's values without its time.
func sceneValues(t *testing.T, s sensor.Snapshot) string {
	t.Helper()
	s.At = time.Time{}
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIngestDifferential drives one seeded push stream through a
// one-source epoch.Store and a one-home fleet on the same clock, each with
// its own trust engine of the same configuration. The stream mixes pushes
// in order, reordered, duplicated, delayed, clock-skewed, unstamped,
// null-valued and empty, and every non-empty push carries the same
// feature set, so the store's merge and the fleet's replace hold the same
// values. After each push both front ends must agree on the verdict (drop
// counts by reason), the values, the event time, the receive stamp and
// the trust score.
func TestIngestDifferential(t *testing.T) {
	now := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	newEngine := func() *trust.Engine {
		e, err := trust.NewEngine(trust.Config{}, trust.SourceConfig{Name: "push", Required: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	storeTrust, storeReg := newEngine(), obs.NewRegistry()
	st, err := epoch.NewStore(epoch.Config{Now: clock, Metrics: storeReg,
		Observe: func(source string, d sensor.Snapshot, at time.Time) { storeTrust.Observe(source, d, at) },
	}, epoch.SourceConfig{Name: "push"})
	if err != nil {
		t.Fatal(err)
	}
	fleetTrust, fleetReg := newEngine(), obs.NewRegistry()
	f := fleetForTest(t, Config{Now: clock, Metrics: fleetReg})
	h := mustAddHome(t, f, HomeConfig{ID: "h", Trust: fleetTrust})

	rng := rand.New(rand.NewSource(28))
	var feats []sensor.Feature
	scene := func(at time.Time) sensor.Snapshot {
		s, err := dataset.LegalScene(dataset.ModelWindow, rng)
		if err != nil {
			t.Fatal(err)
		}
		if feats == nil {
			feats = s.Features()
		} else if !slices.Equal(s.Features(), feats) {
			t.Fatalf("scene features %v, want the stream's %v", s.Features(), feats)
		}
		s.At = at
		return s
	}
	const pushes = 2000
	var (
		newest time.Time // the newest event time pushed, accepted or not
		prev   = scene(now)
		kinds  = map[string]int{}
	)
	for i := 0; i < pushes; i++ {
		now = now.Add(time.Duration(1+rng.Intn(3)) * time.Second)
		var push sensor.Snapshot
		kind := []string{"in order", "in order", "reordered", "duplicated", "delayed",
			"skewed", "unstamped", "null", "empty", "unstamped empty"}[rng.Intn(10)]
		switch kind {
		case "in order":
			push = scene(now)
		case "reordered":
			push = scene(newest.Add(-time.Duration(1+rng.Intn(5)) * time.Second))
		case "duplicated":
			push = prev
		case "delayed":
			push = scene(now.Add(-time.Duration(rng.Intn(8)) * time.Second))
		case "skewed":
			push = scene(now.Add(time.Duration(1+rng.Intn(5)) * time.Second))
		case "unstamped":
			push = scene(time.Time{})
		case "null":
			push = scene(now).Clone()
			push.Set(feats[rng.Intn(len(feats))], sensor.Value{})
		case "empty":
			push = sensor.NewSnapshot(now)
		case "unstamped empty":
			push = sensor.Snapshot{}
		}
		kinds[kind]++
		prev = push
		if at := epoch.EventTime(push, now); at.After(newest) {
			newest = at
		}

		if err := st.Push("push", push); err != nil {
			t.Fatal(err)
		}
		if err := f.PushContext("h", push); err != nil {
			t.Fatal(err)
		}

		sv, fv := st.View(), h.view.Load()
		if fv == nil {
			if sv.Epoch != 0 {
				t.Fatalf("push %d (%s): the store published epoch %d, the fleet no view", i, kind, sv.Epoch)
			}
		} else {
			if got, want := sceneValues(t, fv.snap), sceneValues(t, sv.Snap); got != want {
				t.Fatalf("push %d (%s): fleet values %s, store values %s", i, kind, got, want)
			}
			if got := epoch.EventTime(fv.snap, fv.at); !got.Equal(sv.At) {
				t.Fatalf("push %d (%s): fleet event time %v, store %v", i, kind, got, sv.At)
			}
			if !fv.at.Equal(sv.PushedAt[0]) {
				t.Fatalf("push %d (%s): fleet receive stamp %v, store %v", i, kind, fv.at, sv.PushedAt[0])
			}
		}
		for _, reason := range []string{"out_of_order", "zero_value"} {
			got := seriesValue(t, fleetReg, `iotsid_fleet_context_pushes_dropped_total{reason="`+reason+`"}`)
			want := seriesValue(t, storeReg, `iotsid_epoch_drops_total{source="push",reason="`+reason+`"}`)
			if got != want {
				t.Fatalf("push %d (%s): fleet dropped %d as %s, store %d", i, kind, got, reason, want)
			}
		}
		gs, _ := fleetTrust.Score("push")
		ws, _ := storeTrust.Score("push")
		if gs != ws {
			t.Fatalf("push %d (%s): fleet trust %v, store %v", i, kind, gs, ws)
		}
	}
	accepted := seriesValue(t, fleetReg, "iotsid_fleet_context_pushes_total")
	outOfOrder := seriesValue(t, fleetReg, `iotsid_fleet_context_pushes_dropped_total{reason="out_of_order"}`)
	null := seriesValue(t, fleetReg, `iotsid_fleet_context_pushes_dropped_total{reason="zero_value"}`)
	t.Logf("%d pushes: %d accepted, %d out of order, %d null; kinds %v", pushes, accepted, outOfOrder, null, kinds)
	if accepted+outOfOrder+null != pushes || accepted < pushes/4 || outOfOrder == 0 || null == 0 {
		t.Fatalf("verdicts %d accepted, %d out of order, %d null of %d pushes: the stream does not cover the rule",
			accepted, outOfOrder, null, pushes)
	}
}
