package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"iotsid/internal/mlearn"
	"iotsid/internal/par"
	"iotsid/internal/sensor"
)

// BuildConfig tunes dataset construction for one device model.
type BuildConfig struct {
	Seed int64
	// Workers bounds BuildAll's per-model fan-out; 0 means GOMAXPROCS.
	// Each model's generator is seeded before the fan-out, so the built
	// datasets are identical for every worker count.
	Workers int
	// AttackRatio is the fraction of the built dataset that is negative
	// (attack) examples — kept deliberately small to reproduce the paper's
	// "vast disparity in the ratio of positive and negative samples"
	// before oversampling. Default 0.15.
	AttackRatio float64
	// MaxPerStrategy caps the examples one strategy contributes after
	// popularity expansion. Default 40.
	MaxPerStrategy int
	// PositiveOverride, when >0, fixes the positive count directly instead
	// of expanding the corpus (used by scaling benchmarks).
	PositiveOverride int
}

func (c BuildConfig) withDefaults() BuildConfig {
	if c.AttackRatio == 0 {
		c.AttackRatio = 0.15
	}
	if c.MaxPerStrategy == 0 {
		c.MaxPerStrategy = 40
	}
	return c
}

// Expansion returns how many training scenes one strategy contributes: the
// square root of its user count (each user's home yields correlated but not
// independent evidence), capped so a single viral strategy cannot dominate.
func Expansion(users, cap int) int {
	n := int(math.Round(math.Sqrt(float64(users))))
	if n < 1 {
		n = 1
	}
	if n > cap {
		n = cap
	}
	return n
}

// NoiseProfile calibrates the irreducible context overlap of one device
// model: LegalFromAttack is the probability that a legitimate command is
// issued from an attack-looking context (a user opens the window on a rainy
// night — these become the trained model's false negatives), and
// AttackFromLegal the probability that an attack is staged inside a
// legal-looking context (these become its false alarms).
type NoiseProfile struct {
	LegalFromAttack float64
	AttackFromLegal float64
}

// noiseProfiles is calibrated so that the natural-test-split evaluation
// reproduces the Table VI error shape: FNR ≈ 4–7 % (light, the paper's
// fuzziest concept, higher), FPR ≈ 0 except the window model's 5 %.
var noiseProfiles = map[Model]NoiseProfile{
	ModelWindow:  {LegalFromAttack: 0.06, AttackFromLegal: 0.025},
	ModelAircon:  {LegalFromAttack: 0.075, AttackFromLegal: 0},
	ModelLight:   {LegalFromAttack: 0.11, AttackFromLegal: 0},
	ModelCurtain: {LegalFromAttack: 0.0535, AttackFromLegal: 0},
	ModelTV:      {LegalFromAttack: 0.055, AttackFromLegal: 0},
	ModelKitchen: {LegalFromAttack: 0.042, AttackFromLegal: 0},
}

// Build constructs the labelled dataset for one device model: positives
// expanded from the corpus strategies of the model's category, negatives
// injected attacks, with the model's calibrated context noise applied.
func Build(m Model, corpus []Strategy, cfg BuildConfig) (*mlearn.Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.AttackRatio <= 0 || cfg.AttackRatio >= 1 {
		return nil, fmt.Errorf("dataset: attack ratio %v outside (0,1)", cfg.AttackRatio)
	}
	schema, err := m.Schema()
	if err != nil {
		return nil, err
	}
	cat, err := m.Category()
	if err != nil {
		return nil, err
	}
	nPos := cfg.PositiveOverride
	if nPos <= 0 {
		for _, s := range corpus {
			if s.Category == cat && s.Warn == WarnNone {
				nPos += Expansion(s.Users, cfg.MaxPerStrategy)
			}
		}
	}
	if nPos == 0 {
		return nil, fmt.Errorf("dataset: corpus has no strategies for model %s", m)
	}
	nNeg := int(math.Round(float64(nPos) * cfg.AttackRatio / (1 - cfg.AttackRatio)))
	if nNeg < 1 {
		nNeg = 1
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	noise := noiseProfiles[m]
	d := mlearn.NewDataset(schema)
	add := func(label int, fromAttack bool) error {
		var snap sensor.Snapshot
		var err error
		if fromAttack {
			snap, err = AttackScene(m, rng)
		} else {
			snap, err = LegalScene(m, rng)
		}
		if err != nil {
			return err
		}
		x, err := m.Featurize(snap)
		if err != nil {
			return fmt.Errorf("featurize scene: %w", err)
		}
		return d.Add(x, label)
	}
	for i := 0; i < nPos; i++ {
		if err := add(1, rng.Float64() < noise.LegalFromAttack); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nNeg; i++ {
		if err := add(0, rng.Float64() >= noise.AttackFromLegal); err != nil {
			return nil, err
		}
	}
	d.Shuffle(rng)
	return d, nil
}

// BuildAll constructs the dataset of every evaluated model, seeding each
// model's generator independently from cfg.Seed. Models build concurrently
// on cfg.Workers goroutines; because every model's seed is derived from its
// index before the fan-out, the result is bit-identical to a serial build.
func BuildAll(corpus []Strategy, cfg BuildConfig) (map[Model]*mlearn.Dataset, error) {
	models := Models()
	built, err := par.Map(len(models), cfg.Workers, func(i int) (*mlearn.Dataset, error) {
		mc := cfg
		mc.Seed = cfg.Seed + int64(i)*7919
		d, err := Build(models[i], corpus, mc)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", models[i], err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Model]*mlearn.Dataset, len(models))
	for i, m := range models {
		out[m] = built[i]
	}
	return out, nil
}
