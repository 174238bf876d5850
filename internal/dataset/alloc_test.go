package dataset

import "testing"

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
