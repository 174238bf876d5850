package seq

import (
	"bytes"
	"math"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

// FuzzSequenceObserve drives ObserveJudge over adversarial three-event
// streams: NaN/Inf hours and temporal features, out-of-order and zero
// timestamps, unknown device models, rejected events. The judge must be
// total (no panics), deterministic (two trackers fed the same stream land
// on bit-identical verdicts and history depth), and read-only with
// respect to the trained table (Serialize is byte-identical before and
// after any stream).
func FuzzSequenceObserve(f *testing.F) {
	f.Add(12.5, 30.0, 600.0, true, true, true, true, int64(1_000_000_000), int64(2_000_000_000), int64(3_000_000_000), int64(0))
	f.Add(math.NaN(), math.Inf(1), math.NaN(), false, true, true, false, int64(3), int64(2), int64(1), int64(7))
	f.Add(-24.0, -1.0, math.Inf(-1), true, false, false, true, int64(0), int64(0), int64(0), int64(-1))
	f.Add(1e308, -1e308, 0.0, true, true, true, true, int64(-5), int64(1_600_000_000_000_000_000), int64(5), int64(2))

	set, err := Train(TrainConfig{Seed: 11, Sequences: 24, Events: 24, Models: dataset.Models()[:1]})
	if err != nil {
		f.Fatal(err)
	}
	golden := set.Serialize()
	trained := dataset.Models()[0]

	f.Fuzz(func(t *testing.T, hour, gapRaw, dwellRaw float64, voice, occ, sensitive, allowed bool, at1, at2, at3, modelSel int64) {
		m := trained
		if modelSel%2 != 0 {
			m = dataset.Model("ghost_model") // no table: observed, never judged
		}
		ts := func(n int64) time.Time {
			if n == 0 {
				return time.Time{}
			}
			return time.Unix(0, n)
		}
		times := [3]time.Time{ts(at1), ts(at2), ts(at3)} // fuzzer-ordered: may run backwards
		mk := func(i int) sensor.Snapshot {
			snap := sensor.NewSnapshot(times[i])
			h := hour
			switch i {
			case 1:
				h = -h
			case 2:
				h *= 1e6
			}
			snap.Set(sensor.FeatHour, sensor.Number(h))
			snap.Set(sensor.FeatVoiceCmd, sensor.Bool(voice))
			if i != 1 { // event 1 omits occupancy entirely
				snap.Set(sensor.FeatOccupancy, sensor.Bool(occ != (i == 2)))
			}
			if i == 0 { // explicit temporal overrides on the first event
				snap.Set(sensor.FeatInstrGap, sensor.Number(gapRaw))
				snap.Set(sensor.FeatOccupancyDwell, sensor.Number(dwellRaw))
			}
			return snap
		}
		run := func() ([3]Verdict, uint64) {
			var tr Tracker
			var out [3]Verdict
			for i := 0; i < 3; i++ {
				out[i] = set.ObserveJudge(&tr, m, sensitive != (i == 1), allowed != (i == 2), mk(i), times[i])
			}
			return out, tr.n
		}
		a, alen := run()
		b, blen := run()
		if alen != blen {
			t.Fatalf("same stream, different history depth: %d vs %d", alen, blen)
		}
		for i := range a {
			if a[i].Judged != b[i].Judged || a[i].Anomalous != b[i].Anomalous ||
				a[i].BadTransitions != b[i].BadTransitions ||
				math.Float64bits(a[i].MinLL) != math.Float64bits(b[i].MinLL) {
				t.Fatalf("event %d: same stream, different verdicts: %+v vs %+v", i, a[i], b[i])
			}
			if a[i].Anomalous && !a[i].Judged {
				t.Fatalf("event %d anomalous without being judged: %+v", i, a[i])
			}
			if a[i].Judged && math.IsNaN(a[i].MinLL) {
				t.Fatalf("event %d: judged window scored NaN: %+v", i, a[i])
			}
		}
		if alen > 3 {
			t.Fatalf("tracker admitted %d events from a 3-event stream", alen)
		}
		if got := set.Serialize(); !bytes.Equal(got, golden) {
			t.Fatal("observation stream mutated the trained table")
		}
	})
}
