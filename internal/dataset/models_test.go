package dataset

import (
	"math/rand"
	"testing"

	"iotsid/internal/instr"
	"iotsid/internal/mlearn"
	"iotsid/internal/sensor"
)

func TestModelsTableVIOrder(t *testing.T) {
	ms := Models()
	want := []Model{ModelWindow, ModelAircon, ModelLight, ModelCurtain, ModelTV, ModelKitchen}
	if len(ms) != len(want) {
		t.Fatalf("Models() = %v", ms)
	}
	for i := range want {
		if ms[i] != want[i] {
			t.Fatalf("Models() = %v", ms)
		}
	}
}

func TestModelCategoryBijection(t *testing.T) {
	seen := make(map[instr.Category]bool)
	for _, m := range Models() {
		c, err := m.Category()
		if err != nil {
			t.Fatalf("%s.Category: %v", m, err)
		}
		if seen[c] {
			t.Errorf("category %v mapped twice", c)
		}
		seen[c] = true
		back, ok := ModelForCategory(c)
		if !ok || back != m {
			t.Errorf("ModelForCategory(%v) = %v, %v", c, back, ok)
		}
		if m.Title() == "" {
			t.Errorf("%s has no title", m)
		}
	}
	if _, err := Model("fishtank").Category(); err == nil {
		t.Error("want error for unknown model")
	}
	// Categories the paper excludes have no model.
	for _, c := range []instr.Category{instr.CatAlarm, instr.CatCamera, instr.CatVacuum} {
		if _, ok := ModelForCategory(c); ok {
			t.Errorf("category %v should have no model", c)
		}
	}
}

func TestWindowFeaturesMatchFig6(t *testing.T) {
	want := []sensor.Feature{
		sensor.FeatSmoke, sensor.FeatGas, sensor.FeatVoiceCmd,
		sensor.FeatDoorLock, sensor.FeatTempIndoor, sensor.FeatAirQuality,
		sensor.FeatWeather, sensor.FeatMotion, sensor.FeatHour,
	}
	got := ModelWindow.Features()
	if len(got) != 9 {
		t.Fatalf("window features = %v, want the nine of Fig 6", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSchemasWellFormed(t *testing.T) {
	for _, m := range Models() {
		s, err := m.Schema()
		if err != nil {
			t.Fatalf("%s.Schema: %v", m, err)
		}
		if s.Len() != len(m.Features()) {
			t.Errorf("%s schema width %d, features %d", m, s.Len(), len(m.Features()))
		}
		// Mixed data: at least one numeric and one categorical attribute
		// per model (the paper's motivation for decision trees).
		var num, cat bool
		for _, a := range s.Attrs {
			switch a.Kind {
			case mlearn.Numeric:
				num = true
			case mlearn.Categorical:
				cat = true
			}
		}
		if !num || !cat {
			t.Errorf("%s schema not mixed: numeric=%v categorical=%v", m, num, cat)
		}
	}
	if _, err := Model("fishtank").Schema(); err == nil {
		t.Error("want error for unknown model")
	}
}

func TestFeaturizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range Models() {
		schema, err := m.Schema()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			for _, gen := range []func(Model, *rand.Rand) (sensor.Snapshot, error){LegalScene, AttackScene} {
				snap, err := gen(m, rng)
				if err != nil {
					t.Fatalf("%s scene: %v", m, err)
				}
				if err := snap.Validate(); err != nil {
					t.Fatalf("%s scene invalid: %v", m, err)
				}
				x, err := m.Featurize(snap)
				if err != nil {
					t.Fatalf("%s featurize: %v", m, err)
				}
				if len(x) != schema.Len() {
					t.Fatalf("%s vector width %d", m, len(x))
				}
				// The vector must be addable to a dataset (validates
				// categorical ranges).
				d := mlearn.NewDataset(schema)
				if err := d.Add(x, 1); err != nil {
					t.Fatalf("%s vector rejected: %v", m, err)
				}
			}
		}
	}
}

func TestFeaturizeErrors(t *testing.T) {
	empty := sensor.NewSnapshot(sceneTime)
	if _, err := ModelWindow.Featurize(empty); err == nil {
		t.Error("want error for missing features")
	}
	if _, err := Model("fishtank").Featurize(empty); err == nil {
		t.Error("want error for unknown model")
	}
	// Wrong value type for a feature.
	bad := sensor.NewSnapshot(sceneTime)
	for _, f := range ModelWindow.Features() {
		bad.Set(f, sensor.Number(1)) // smoke should be bool
	}
	if _, err := ModelWindow.Featurize(bad); err == nil {
		t.Error("want error for mistyped feature")
	}
}

func TestSceneGeneratorsUnknownModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := LegalScene(Model("fishtank"), rng); err == nil {
		t.Error("want error")
	}
	if _, err := AttackScene(Model("fishtank"), rng); err == nil {
		t.Error("want error")
	}
}

func TestFeaturizeIntoMatchesFeaturize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range Models() {
		buf := make([]float64, len(modelSpecs[m]))
		for i := 0; i < 50; i++ {
			gen := LegalScene
			if i%2 == 1 {
				gen = AttackScene
			}
			snap, err := gen(m, rng)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.Featurize(snap)
			if err != nil {
				t.Fatal(err)
			}
			// Dirty the buffer to prove every slot is written.
			for j := range buf {
				buf[j] = -99
			}
			if err := m.FeaturizeInto(snap, buf); err != nil {
				t.Fatalf("%s FeaturizeInto: %v", m, err)
			}
			for j := range want {
				if buf[j] != want[j] {
					t.Fatalf("%s slot %d: into = %v, featurize = %v", m, j, buf[j], want[j])
				}
			}
		}
	}
}

func TestFeaturizeIntoErrors(t *testing.T) {
	snap, err := LegalSceneSeeded(ModelWindow, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ModelWindow.FeaturizeInto(snap, make([]float64, 2)); err == nil {
		t.Error("want width-mismatch error")
	}
	if err := Model("fishtank").FeaturizeInto(snap, nil); err == nil {
		t.Error("want unknown-model error")
	}
}
