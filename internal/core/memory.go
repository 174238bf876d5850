package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"iotsid/internal/dataset"
	"iotsid/internal/mlearn"
	"iotsid/internal/mlearn/tree"
	"iotsid/internal/par"
	"iotsid/internal/sensor"
)

// Sampling selects the class-imbalance fix applied to training data.
type Sampling int

// Sampling strategies (§IV-C-2 picks oversampling).
const (
	SampleRandomOversample Sampling = iota + 1
	SampleSMOTE
	SampleNone
)

// String names the strategy.
func (s Sampling) String() string {
	switch s {
	case SampleRandomOversample:
		return "random_oversample"
	case SampleSMOTE:
		return "smote"
	case SampleNone:
		return "none"
	default:
		return fmt.Sprintf("sampling(%d)", int(s))
	}
}

// TrainConfig tunes the feature-memory training pipeline.
type TrainConfig struct {
	Seed       int64
	Tree       tree.Config
	SplitRatio float64  // train share; default 0.7 (the paper's 7:3)
	Sampling   Sampling // default random oversampling
	KFold      int      // cross-validation folds; default 5
	// Workers bounds the per-model training fan-out (and the per-fold
	// cross-validation fan-out inside each model); 0 means GOMAXPROCS.
	// Every parallel unit's seed is derived before the fan-out, so trained
	// memories are bit-identical for every worker count.
	Workers int
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.SplitRatio == 0 {
		c.SplitRatio = 0.7
	}
	if c.Sampling == 0 {
		c.Sampling = SampleRandomOversample
	}
	if c.KFold == 0 {
		c.KFold = 5
	}
	if c.Tree.MinSamplesLeaf == 0 {
		c.Tree.MinSamplesLeaf = 5
	}
	return c
}

// Report records how one device model trained and evaluated — the raw
// material of Table VI.
type Report struct {
	Model         dataset.Model `json:"model"`
	TrainExamples int           `json:"train_examples"`
	TestExamples  int           `json:"test_examples"`
	TrainAccuracy float64       `json:"train_accuracy"`
	TestAccuracy  float64       `json:"test_accuracy"`
	Recall        float64       `json:"recall"`
	Precision     float64       `json:"precision"`
	FPR           float64       `json:"fpr"`
	FNR           float64       `json:"fnr"`
	CVMeanAcc     float64       `json:"cv_mean_accuracy"`
	CVStdAcc      float64       `json:"cv_std_accuracy"`
}

// Entry is one device model's slot in the feature memory: the trained tree,
// its feature weights (Fig 6) and its evaluation report. Alongside the
// explaining tree the entry holds a compiled form of it plus a pool of
// feature buffers — the zero-allocation pair Judge runs on.
type Entry struct {
	Tree    *tree.Tree    `json:"tree"`
	Weights []tree.Weight `json:"weights"`
	Report  Report        `json:"report"`

	compiled *tree.Compiled
	bufs     *sync.Pool // of *[]float64 sized to the tree's schema
}

// compile flattens the entry's tree and sizes its buffer pool. Every path
// that stores an entry (Train, Put, Load) calls this before the entry is
// published, so readers see the fields without synchronisation.
func (e *Entry) compile() error {
	c, err := e.Tree.Compile()
	if err != nil {
		return err
	}
	width := c.Width()
	e.compiled = c
	e.bufs = &sync.Pool{New: func() any {
		buf := make([]float64, width)
		return &buf
	}}
	return nil
}

// Compiled exposes the flattened inference tree (nil only for an entry that
// was never stored through the memory's API).
func (e *Entry) Compiled() *tree.Compiled { return e.compiled }

// judgeLeaf looks up m's entry in store and walks its compiled tree over a
// live snapshot — the one zero-allocation judge every model store and the
// Judger share: the feature vector comes from the entry's buffer pool,
// FeaturizeInto fills it in place, and the flattened tree is walked without
// pointer chasing. A scene lacking a feature the model reads is reported
// as FeaturizeInto's *dataset.MissingFeatureError, which allocates nothing
// either.
//
//iot:hotpath
func judgeLeaf(store ModelStore, m dataset.Model, ctx sensor.Snapshot) (*Entry, int32, error) {
	e, ok := store.Entry(m)
	if !ok {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return nil, 0, fmt.Errorf("core: no trained model for %s", m)
	}
	bufp := e.bufs.Get().(*[]float64)
	err := m.FeaturizeInto(ctx, *bufp)
	if err != nil {
		e.bufs.Put(bufp)
		return nil, 0, err
	}
	leaf := e.compiled.Leaf(*bufp)
	e.bufs.Put(bufp)
	return e, leaf, nil
}

// JudgeModel runs m's compiled tree from store on a live snapshot: true
// means the context matches a legal activity scene. It allocates nothing
// on the steady-state path.
//
//iot:hotpath
func JudgeModel(store ModelStore, m dataset.Model, ctx sensor.Snapshot) (bool, error) {
	e, leaf, err := judgeLeaf(store, m, ctx)
	if err != nil {
		return false, err
	}
	return e.compiled.Label(leaf) == 1, nil
}

// FeatureMemory is the command sensor context feature memory (§IV-C): one
// trained decision tree per sensitive device model, with stored feature
// weights. Safe for concurrent use.
type FeatureMemory struct {
	mu      sync.RWMutex
	entries map[dataset.Model]*Entry
}

// NewFeatureMemory returns an empty memory.
func NewFeatureMemory() *FeatureMemory {
	return &FeatureMemory{entries: make(map[dataset.Model]*Entry)}
}

// Train builds the full memory from the strategy corpus: per device model,
// build the dataset, split 7:3 stratified, fix the class imbalance on the
// training split, grow the tree, cross-validate, and store tree + weights.
// The six models train concurrently on tcfg.Workers goroutines; per-model
// seeds are derived from the model index before the fan-out, so the trained
// memory is bit-identical to a serial run.
func Train(corpus []dataset.Strategy, bcfg dataset.BuildConfig, tcfg TrainConfig) (*FeatureMemory, error) {
	tcfg = tcfg.withDefaults()
	if bcfg.Workers == 0 {
		bcfg.Workers = tcfg.Workers
	}
	all, err := dataset.BuildAll(corpus, bcfg)
	if err != nil {
		return nil, err
	}
	models := dataset.Models()
	entries, err := par.Map(len(models), tcfg.Workers, func(i int) (*Entry, error) {
		m := models[i]
		entry, err := trainModel(m, all[m], tcfg, tcfg.Seed+int64(i)*104729)
		if err != nil {
			return nil, fmt.Errorf("train %s: %w", m, err)
		}
		return entry, nil
	})
	if err != nil {
		return nil, err
	}
	fm := NewFeatureMemory()
	for i, m := range models {
		fm.entries[m] = entries[i]
	}
	return fm, nil
}

// TrainModel trains a single model entry from a prebuilt dataset (used by
// ablation benchmarks and tests).
func TrainModel(m dataset.Model, d *mlearn.Dataset, tcfg TrainConfig) (*Entry, error) {
	tcfg = tcfg.withDefaults()
	return trainModel(m, d, tcfg, tcfg.Seed)
}

func trainModel(m dataset.Model, d *mlearn.Dataset, tcfg TrainConfig, seed int64) (*Entry, error) {
	rng := rand.New(rand.NewSource(seed))
	train, test, err := d.SplitStratified(tcfg.SplitRatio, rng)
	if err != nil {
		return nil, err
	}
	balanced, err := resample(train, tcfg.Sampling, rng)
	if err != nil {
		return nil, err
	}
	tr := tree.New(tcfg.Tree)
	if err := tr.Fit(balanced); err != nil {
		return nil, err
	}
	weights, err := tr.FeatureWeights()
	if err != nil {
		return nil, err
	}
	cv, err := mlearn.CrossValidateWorkers(func() mlearn.Classifier { return tree.New(tcfg.Tree) },
		balanced, tcfg.KFold, rng, tcfg.Workers)
	if err != nil {
		return nil, err
	}
	entry := &Entry{Tree: tr, Weights: weights}
	if err := entry.compile(); err != nil {
		return nil, err
	}
	testEval := mlearn.Evaluate(tr, test)
	entry.Report = Report{
		Model:         m,
		TrainExamples: balanced.Len(),
		TestExamples:  test.Len(),
		TrainAccuracy: mlearn.Evaluate(tr, balanced).Accuracy(),
		TestAccuracy:  testEval.Accuracy(),
		Recall:        testEval.Recall(),
		Precision:     testEval.Precision(),
		FPR:           testEval.FPR(),
		FNR:           testEval.FNR(),
		CVMeanAcc:     cv.MeanAccuracy(),
		CVStdAcc:      cv.StdAccuracy(),
	}
	return entry, nil
}

func resample(d *mlearn.Dataset, s Sampling, rng *rand.Rand) (*mlearn.Dataset, error) {
	switch s {
	case SampleRandomOversample:
		return mlearn.OversampleRandom(d, rng)
	case SampleSMOTE:
		return mlearn.OversampleSMOTE(d, 5, rng)
	case SampleNone:
		return d, nil
	default:
		return nil, fmt.Errorf("core: unknown sampling strategy %d", s)
	}
}

// Put stores an entry (replacing any previous one), compiling its tree for
// the inference fast path if that has not happened yet.
func (fm *FeatureMemory) Put(m dataset.Model, e *Entry) error {
	if e == nil || e.Tree == nil {
		return fmt.Errorf("core: nil entry for %s", m)
	}
	if e.compiled == nil {
		if err := e.compile(); err != nil {
			return fmt.Errorf("core: compile entry for %s: %w", m, err)
		}
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	fm.entries[m] = e
	return nil
}

// Entry fetches one model's entry.
func (fm *FeatureMemory) Entry(m dataset.Model) (*Entry, bool) {
	fm.mu.RLock()
	defer fm.mu.RUnlock()
	e, ok := fm.entries[m]
	return e, ok
}

// Models lists the stored models in Table VI order.
func (fm *FeatureMemory) Models() []dataset.Model {
	fm.mu.RLock()
	defer fm.mu.RUnlock()
	var out []dataset.Model
	for _, m := range dataset.Models() {
		if _, ok := fm.entries[m]; ok {
			out = append(out, m)
		}
	}
	return out
}

// Judge runs one model's compiled tree on a live snapshot: true means the
// context matches a legal activity scene (see JudgeModel).
//
//iot:hotpath
func (fm *FeatureMemory) Judge(m dataset.Model, ctx sensor.Snapshot) (bool, error) {
	return JudgeModel(fm, m, ctx)
}

// memoryJSON is the persistence envelope.
type memoryJSON struct {
	Entries map[dataset.Model]*Entry `json:"entries"`
}

// Save serialises the memory as JSON.
func (fm *FeatureMemory) Save(w io.Writer) error {
	fm.mu.RLock()
	defer fm.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(memoryJSON{Entries: fm.entries})
}

// Load restores a memory previously written by Save.
func Load(r io.Reader) (*FeatureMemory, error) {
	var raw memoryJSON
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, fmt.Errorf("core: load feature memory: %w", err)
	}
	fm := NewFeatureMemory()
	for m, e := range raw.Entries {
		if e == nil || e.Tree == nil {
			return nil, fmt.Errorf("core: serialised entry for %s has no tree", m)
		}
		if err := e.compile(); err != nil {
			return nil, fmt.Errorf("core: compile loaded entry for %s: %w", m, err)
		}
		fm.entries[m] = e
	}
	return fm, nil
}
