package peeves

import (
	"math/rand"
	"testing"
	"time"

	"iotsid/internal/dataset"
	"iotsid/internal/sensor"
)

var correlates = []sensor.Feature{
	sensor.FeatAirQuality, sensor.FeatGas, sensor.FeatTempIndoor, sensor.FeatMotion,
}

// genuineSmokeScenes draws window-model legal hazard scenes with smoke set.
func genuineSmokeScenes(t *testing.T, n int, seed int64) []sensor.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []sensor.Snapshot
	for len(out) < n {
		s, err := dataset.LegalScene(dataset.ModelWindow, rng)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bool(sensor.FeatSmoke) {
			out = append(out, s)
		}
	}
	return out
}

// spoofedSmokeScenes draws attack scenes where the smoke boolean is forged.
func spoofedSmokeScenes(t *testing.T, n int, seed int64) []sensor.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []sensor.Snapshot
	for len(out) < n {
		s, err := dataset.AttackScene(dataset.ModelWindow, rng)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bool(sensor.FeatSmoke) {
			out = append(out, s)
		}
	}
	return out
}

func trainedVerifier(t *testing.T) *Verifier {
	t.Helper()
	v, err := Train(sensor.FeatSmoke, correlates, genuineSmokeScenes(t, 300, 1))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return v
}

func TestVerifierSeparatesGenuineFromSpoof(t *testing.T) {
	v := trainedVerifier(t)
	var genuineOK, spoofCaught int
	genuine := genuineSmokeScenes(t, 200, 2)
	for _, s := range genuine {
		_, ok, err := v.Verify(s)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			genuineOK++
		}
	}
	spoofs := spoofedSmokeScenes(t, 200, 3)
	for _, s := range spoofs {
		_, ok, err := v.Verify(s)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			spoofCaught++
		}
	}
	if rate := float64(genuineOK) / float64(len(genuine)); rate < 0.9 {
		t.Errorf("genuine acceptance = %v", rate)
	}
	// The calibrated spoofs deliberately sit inside the correlate envelope
	// most of the time — a range verifier only catches the sloppy tail.
	// (The eval package contrasts this with the IDS's ~95 % interception.)
	if rate := float64(spoofCaught) / float64(len(spoofs)); rate < 0.1 {
		t.Errorf("spoof detection = %v, want at least the sloppy tail", rate)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(sensor.FeatSmoke, correlates, nil); err == nil {
		t.Error("want empty error")
	}
	if _, err := Train(sensor.FeatSmoke, nil, genuineSmokeScenes(t, 5, 4)); err == nil {
		t.Error("want no-correlates error")
	}
	// Snapshot without the event.
	s := sensor.NewSnapshot(time.Time{})
	s.Set(sensor.FeatSmoke, sensor.Bool(false))
	if _, err := Train(sensor.FeatSmoke, correlates, []sensor.Snapshot{s}); err == nil {
		t.Error("want event-absent error")
	}
	// Unknown correlate.
	if _, err := Train(sensor.FeatSmoke, []sensor.Feature{sensor.FeatureLimit}, genuineSmokeScenes(t, 5, 5)); err == nil {
		t.Error("want unknown-correlate error")
	}
	// Correlate missing from all scenes.
	if _, err := Train(sensor.FeatSmoke, []sensor.Feature{sensor.FeatNoise}, genuineSmokeScenes(t, 5, 6)); err == nil {
		t.Error("want absent-correlate error")
	}
}

func TestVerifyValidation(t *testing.T) {
	v := trainedVerifier(t)
	// Claiming snapshot without the event.
	s := sensor.NewSnapshot(time.Time{})
	s.Set(sensor.FeatSmoke, sensor.Bool(false))
	if _, _, err := v.Verify(s); err == nil {
		t.Error("want no-claim error")
	}
	// Event claimed but no correlates at all.
	s = sensor.NewSnapshot(time.Time{})
	s.Set(sensor.FeatSmoke, sensor.Bool(true))
	if _, _, err := v.Verify(s); err == nil {
		t.Error("want no-correlates error")
	}
	if v.event != sensor.FeatSmoke {
		t.Error("verified event wrong")
	}
}

func TestVerifyScoreBounds(t *testing.T) {
	v := trainedVerifier(t)
	for _, s := range append(genuineSmokeScenes(t, 50, 7), spoofedSmokeScenes(t, 50, 8)...) {
		score, _, err := v.Verify(s)
		if err != nil {
			t.Fatal(err)
		}
		if score < 0 || score > 1 {
			t.Fatalf("score = %v", score)
		}
	}
}
