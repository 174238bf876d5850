package dataset

import (
	"math"
	"math/rand"
	"testing"

	"iotsid/internal/mlearn"
	"iotsid/internal/mlearn/tree"
)

func TestBuildImbalanceAndDeterminism(t *testing.T) {
	corpus := mustCorpus(t, 1)
	d, err := Build(ModelWindow, corpus, BuildConfig{Seed: 11})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	counts := d.ClassCounts()
	if counts[1] == 0 || counts[0] == 0 {
		t.Fatalf("counts = %v", counts)
	}
	ratio := float64(counts[0]) / float64(d.Len())
	if math.Abs(ratio-0.15) > 0.02 {
		t.Errorf("attack ratio = %v, want ≈0.15", ratio)
	}
	// Deterministic by seed.
	d2, err := Build(ModelWindow, corpus, BuildConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != d2.Len() {
		t.Fatal("non-deterministic size")
	}
	for i := range d.X {
		if d.Y[i] != d2.Y[i] {
			t.Fatal("non-deterministic labels")
		}
		for j := range d.X[i] {
			if d.X[i][j] != d2.X[i][j] {
				t.Fatal("non-deterministic features")
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	corpus := mustCorpus(t, 1)
	if _, err := Build(ModelWindow, corpus, BuildConfig{AttackRatio: 1.5}); err == nil {
		t.Error("want ratio error")
	}
	if _, err := Build(Model("fishtank"), corpus, BuildConfig{}); err == nil {
		t.Error("want model error")
	}
	if _, err := Build(ModelWindow, nil, BuildConfig{}); err == nil {
		t.Error("want empty-corpus error")
	}
}

func TestBuildPositiveOverride(t *testing.T) {
	d, err := Build(ModelKitchen, nil, BuildConfig{Seed: 1, PositiveOverride: 100})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := d.ClassCounts()[1]; got != 100 {
		t.Errorf("positives = %d, want 100", got)
	}
}

func TestBuildAllCoversModels(t *testing.T) {
	corpus := mustCorpus(t, 1)
	all, err := BuildAll(corpus, BuildConfig{Seed: 2})
	if err != nil {
		t.Fatalf("BuildAll: %v", err)
	}
	if len(all) != len(Models()) {
		t.Fatalf("BuildAll built %d datasets", len(all))
	}
	for _, m := range Models() {
		d := all[m]
		if d == nil || d.Len() < 300 {
			t.Errorf("%s dataset too small: %v", m, d)
		}
	}
}

// TestTableVIShape is the dataset-level fidelity gate: under the paper's
// protocol (7:3 stratified split, oversampled training, natural test set) a
// gini tree must land in the Table VI band on every model — accuracy ≥ 0.85,
// training ≥ test accuracy, FPR ≤ 0.08, FNR ≤ 0.16 — and the window model's
// feature weights must put the smoke sensor first with the four discrete
// sensors carrying the bulk of the weight (Fig 6).
func TestTableVIShape(t *testing.T) {
	corpus := mustCorpus(t, 1)
	all, err := BuildAll(corpus, BuildConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Models() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			train, test, err := all[m].SplitStratified(0.7, rng)
			if err != nil {
				t.Fatal(err)
			}
			bal, err := mlearn.OversampleRandom(train, rng)
			if err != nil {
				t.Fatal(err)
			}
			tr := tree.New(tree.Config{Criterion: tree.Gini, MinSamplesLeaf: 5})
			if err := tr.Fit(bal); err != nil {
				t.Fatal(err)
			}
			trainAcc := mlearn.Evaluate(tr, bal).Accuracy()
			mm := mlearn.Evaluate(tr, test)
			if mm.Accuracy() < 0.85 {
				t.Errorf("test accuracy = %v, below the Table VI band", mm.Accuracy())
			}
			if trainAcc < mm.Accuracy() {
				t.Errorf("train accuracy %v below test accuracy %v", trainAcc, mm.Accuracy())
			}
			if mm.FPR() > 0.08 {
				t.Errorf("FPR = %v, want ≈0 (Table VI)", mm.FPR())
			}
			if mm.FNR() > 0.16 {
				t.Errorf("FNR = %v, too high", mm.FNR())
			}
			if m == ModelWindow {
				weights, err := tr.FeatureWeights()
				if err != nil {
					t.Fatal(err)
				}
				if weights[0].Attr != "smoke" {
					t.Errorf("top window feature = %s, want smoke (Fig 6)", weights[0].Attr)
				}
				discrete := map[string]bool{"smoke": true, "combustible_gas": true, "voice_command": true, "door_lock": true}
				var cluster float64
				for _, w := range weights {
					if discrete[w.Attr] {
						cluster += w.Weight
					}
				}
				if cluster < 0.55 {
					t.Errorf("discrete top-4 cluster weight = %v, want dominant (Fig 6)", cluster)
				}
			}
		})
	}
}

func TestNoiseProfilesCalibrated(t *testing.T) {
	for _, m := range Models() {
		n := noiseProfiles[m]
		if n.LegalFromAttack <= 0 || n.LegalFromAttack > 0.2 {
			t.Errorf("%s LegalFromAttack = %v out of calibrated range", m, n.LegalFromAttack)
		}
		if n.AttackFromLegal < 0 || n.AttackFromLegal > 0.1 {
			t.Errorf("%s AttackFromLegal = %v out of calibrated range", m, n.AttackFromLegal)
		}
	}
	// The light concept is the paper's fuzziest — its noise must be the
	// highest so its accuracy lands lowest (Table VI).
	for _, m := range Models() {
		if m != ModelLight && noiseProfiles[m].LegalFromAttack >= noiseProfiles[ModelLight].LegalFromAttack {
			t.Errorf("%s noise %v not below light's %v", m, noiseProfiles[m].LegalFromAttack, noiseProfiles[ModelLight].LegalFromAttack)
		}
	}
}
