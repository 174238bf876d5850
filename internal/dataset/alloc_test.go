package dataset

import (
	"math/rand"
	"testing"

	"iotsid/internal/sensor"
)

// TestFeaturizeIntoZeroAllocs gates the encoding half of the inference fast
// path: filling a caller-provided feature buffer from a snapshot must not
// allocate, for every model. FeatureMemory.Judge leans on this via its
// buffer pool.
func TestFeaturizeIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, m := range Models() {
		snap, err := LegalSceneSeeded(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, len(modelSpecs[m]))
		allocs := testing.AllocsPerRun(500, func() {
			if err := m.FeaturizeInto(snap, buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: FeaturizeInto allocates %.1f objects/op, want 0", m, allocs)
		}
	}
}

// TestScenesSizedExactly pins the scene builders' sizing: every scene a
// model draws, legal or attack, carries exactly the model's features, so
// its values are made once at that width — two allocations per scene, the
// value set and its entries.
func TestScenesSizedExactly(t *testing.T) {
	draws := []func(Model, *rand.Rand) (sensor.Snapshot, error){LegalScene, AttackScene}
	for _, m := range Models() {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 500; i++ {
			for _, draw := range draws {
				s, err := draw(m, rng)
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != len(modelSpecs[m]) {
					t.Fatalf("%s: scene carries %d features %v, model has %d", m, s.Len(), s.Features(), len(modelSpecs[m]))
				}
			}
		}
		if raceEnabled {
			continue
		}
		for _, draw := range draws {
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := draw(m, rng); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 2 {
				t.Errorf("%s: drawing a scene allocates %.1f/op, want 2", m, allocs)
			}
		}
	}
}
