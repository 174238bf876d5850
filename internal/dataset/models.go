package dataset

import (
	"fmt"
	"slices"

	"iotsid/internal/instr"
	"iotsid/internal/mlearn"
	"iotsid/internal/sensor"
)

// Model identifies one of the paper's per-device-category decision-tree
// models (Table VI rows).
type Model string

// The six evaluated device models (Table VI). Door locks and alarms are
// excluded by the paper (§V, "Door" / "Alarm" discussion); cameras get the
// warning linkage of Fig 7 instead of a tree.
const (
	ModelWindow  Model = "window"
	ModelAircon  Model = "air_conditioning"
	ModelLight   Model = "light"
	ModelCurtain Model = "curtain"
	ModelTV      Model = "tv_stereo"
	ModelKitchen Model = "kitchen"
)

// Models lists the evaluated device models in Table VI order.
func Models() []Model {
	return []Model{ModelWindow, ModelAircon, ModelLight, ModelCurtain, ModelTV, ModelKitchen}
}

// Title returns the Table VI display name.
func (m Model) Title() string {
	switch m {
	case ModelWindow:
		return "window"
	case ModelAircon:
		return "Air conditioning"
	case ModelLight:
		return "light"
	case ModelCurtain:
		return "Curtains, blinds"
	case ModelTV:
		return "TV, stereo"
	case ModelKitchen:
		return "Kitchen appliances"
	default:
		return string(m)
	}
}

// Category maps the model to its Table I device category.
func (m Model) Category() (instr.Category, error) {
	switch m {
	case ModelWindow:
		return instr.CatWindowDoorLock, nil
	case ModelAircon:
		return instr.CatAirConditioning, nil
	case ModelLight:
		return instr.CatLighting, nil
	case ModelCurtain:
		return instr.CatCurtain, nil
	case ModelTV:
		return instr.CatEntertainment, nil
	case ModelKitchen:
		return instr.CatKitchen, nil
	default:
		return 0, fmt.Errorf("dataset: unknown model %q", m)
	}
}

// ModelForCategory returns the model evaluating a category's sensitive
// control instructions, or false when the paper has none (locks, alarms,
// cameras, vacuums). This sits on the per-judgment hot path, so it is the
// allocation-free inverse of Category rather than a scan over Models().
func ModelForCategory(c instr.Category) (Model, bool) {
	switch c {
	case instr.CatWindowDoorLock:
		return ModelWindow, true
	case instr.CatAirConditioning:
		return ModelAircon, true
	case instr.CatLighting:
		return ModelLight, true
	case instr.CatCurtain:
		return ModelCurtain, true
	case instr.CatEntertainment:
		return ModelTV, true
	case instr.CatKitchen:
		return ModelKitchen, true
	}
	return "", false
}

// Features returns the model's sensor context features. The window model
// uses exactly the nine features of Fig 6, in the paper's weight order.
func (m Model) Features() []sensor.Feature {
	switch m {
	case ModelWindow:
		return []sensor.Feature{
			sensor.FeatSmoke, sensor.FeatGas, sensor.FeatVoiceCmd,
			sensor.FeatDoorLock, sensor.FeatTempIndoor, sensor.FeatAirQuality,
			sensor.FeatWeather, sensor.FeatMotion, sensor.FeatHour,
		}
	case ModelAircon:
		return []sensor.Feature{
			sensor.FeatTempIndoor, sensor.FeatTempOutdoor, sensor.FeatOccupancy,
			sensor.FeatHour, sensor.FeatHumidity, sensor.FeatVoiceCmd,
			sensor.FeatWindowOpen,
		}
	case ModelLight:
		return []sensor.Feature{
			sensor.FeatIlluminance, sensor.FeatMotion, sensor.FeatOccupancy,
			sensor.FeatHour, sensor.FeatVoiceCmd,
		}
	case ModelCurtain:
		return []sensor.Feature{
			sensor.FeatIlluminance, sensor.FeatHour, sensor.FeatOccupancy,
			sensor.FeatWeather, sensor.FeatVoiceCmd, sensor.FeatMotion,
		}
	case ModelTV:
		return []sensor.Feature{
			sensor.FeatOccupancy, sensor.FeatHour, sensor.FeatNoise,
			sensor.FeatVoiceCmd, sensor.FeatMotion,
		}
	case ModelKitchen:
		return []sensor.Feature{
			sensor.FeatOccupancy, sensor.FeatHour, sensor.FeatSmoke,
			sensor.FeatPowerDraw, sensor.FeatVoiceCmd,
		}
	default:
		return nil
	}
}

// boolCats is the encoding domain for boolean features.
var boolCats = []string{"false", "true"}

// Schema builds the model's mlearn schema: booleans and labels become
// categorical attributes, continuous sensors numeric ones.
func (m Model) Schema() (mlearn.Schema, error) {
	feats := m.Features()
	if feats == nil {
		return mlearn.Schema{}, fmt.Errorf("dataset: unknown model %q", m)
	}
	attrs := make([]mlearn.Attribute, 0, len(feats))
	for _, f := range feats {
		d, ok := sensor.Describe(f)
		if !ok {
			return mlearn.Schema{}, fmt.Errorf("dataset: feature %q not in vocabulary", f)
		}
		switch d.Type {
		case sensor.TypeBool:
			attrs = append(attrs, mlearn.Attribute{Name: f.String(), Kind: mlearn.Categorical, Categories: boolCats})
		case sensor.TypeLabel:
			cats := make([]string, len(d.Labels))
			for i, l := range d.Labels {
				cats[i] = l.String()
			}
			attrs = append(attrs, mlearn.Attribute{Name: f.String(), Kind: mlearn.Categorical, Categories: cats})
		default:
			attrs = append(attrs, mlearn.Attribute{Name: f.String(), Kind: mlearn.Numeric})
		}
	}
	return mlearn.NewSchema(attrs)
}

// featSpec is one precomputed featurisation step: the feature, its slot in
// the model's example vector, and the descriptor fields the encoder needs,
// resolved once at package init so the hot path never rebuilds the feature
// list or re-queries the vocabulary.
type featSpec struct {
	feat    sensor.Feature
	slot    int
	typ     sensor.FeatureType
	labels  []sensor.LabelID     // the label domain, consecutive ordinals
	missing *MissingFeatureError // what FeaturizeInto returns when feat is absent
}

// MissingFeatureError is FeaturizeInto's error for a snapshot that lacks a
// feature the model reads. One per model feature is built at package
// init, so an incomplete scene costs no allocation; treat it as read-only.
type MissingFeatureError struct {
	Model Model
	Text  string // the error text, naming the feature
}

func (e *MissingFeatureError) Error() string { return e.Text }

// modelSpecs caches the featurisation plan per model, in ascending feature
// ordinal order: featurising is then one merge walk over a snapshot's
// sorted entries, which measured as fast as indexing a dense per-feature
// array (EXPERIMENTS.md, "A closed feature vocabulary").
var modelSpecs = func() map[Model][]featSpec {
	out := make(map[Model][]featSpec, len(Models()))
	for _, m := range Models() {
		feats := m.Features()
		specs := make([]featSpec, len(feats))
		for i, f := range feats {
			d := sensor.MustDescribe(f)
			specs[i] = featSpec{feat: f, slot: i, typ: d.Type, labels: d.Labels,
				missing: &MissingFeatureError{Model: m, Text: fmt.Sprintf("dataset: snapshot missing feature %q for model %s", f, m)}}
		}
		slices.SortFunc(specs, func(a, b featSpec) int { return int(a.feat) - int(b.feat) })
		out[m] = specs
	}
	return out
}()

// Featurize encodes a sensor snapshot into the model's example vector. This
// exact encoding is used both when building training data and when the
// command determiner judges a live snapshot, so train and inference cannot
// diverge.
func (m Model) Featurize(snap sensor.Snapshot) ([]float64, error) {
	specs, ok := modelSpecs[m]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown model %q", m)
	}
	out := make([]float64, len(specs))
	if err := m.FeaturizeInto(snap, out); err != nil {
		return nil, err
	}
	return out, nil
}

// FeaturizeInto encodes a snapshot into a caller-provided buffer — the
// allocation-free form of Featurize for the inference fast path. buf must
// have exactly one slot per feature of the model.
//
//iot:hotpath
func (m Model) FeaturizeInto(snap sensor.Snapshot, buf []float64) error {
	specs, ok := modelSpecs[m]
	if !ok {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return fmt.Errorf("dataset: unknown model %q", m)
	}
	if len(buf) != len(specs) {
		//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
		return fmt.Errorf("dataset: feature buffer %d, model %s needs %d", len(buf), m, len(specs))
	}
	cur := snap.Cursor()
	for i := range specs {
		s := &specs[i]
		v, ok := cur.Seek(s.feat)
		if !ok {
			return s.missing
		}
		switch s.typ {
		case sensor.TypeBool:
			b, isBool := v.Bool()
			if !isBool {
				//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
				return fmt.Errorf("dataset: feature %q not boolean", s.feat)
			}
			if b {
				buf[s.slot] = 1
			} else {
				buf[s.slot] = 0
			}
		case sensor.TypeLabel:
			l, isLabel := v.Label()
			if !isLabel {
				//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
				return fmt.Errorf("dataset: feature %q not a label", s.feat)
			}
			idx := int(l) - int(s.labels[0])
			if idx < 0 || idx >= len(s.labels) {
				//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
				return fmt.Errorf("dataset: feature %q label %v outside domain", s.feat, l)
			}
			buf[s.slot] = float64(idx)
		default:
			n, isNum := v.Number()
			if !isNum {
				//iot:allow hotalloc error path, never taken steady-state; the AllocsPerRun gate proves the allow path is 0-alloc
				return fmt.Errorf("dataset: feature %q not numeric", s.feat)
			}
			buf[s.slot] = n
		}
	}
	return nil
}
