// Package mlearn is the machine-learning substrate of the reproduction: a
// dataset/schema model for mixed numeric + categorical features, stratified
// splitting and k-fold cross-validation (§V: "we divide the data set by 7:3
// ... then use the cross-validation method"), oversampling for the paper's
// extreme class imbalance (§IV-C-2), and the full metric suite of Table V
// (equations 1–5).
package mlearn

import (
	"fmt"
	"math/rand"
	"sort"
)

// AttrKind distinguishes numeric from categorical attributes.
type AttrKind int

// Attribute kinds.
const (
	Numeric AttrKind = iota + 1
	Categorical
)

// String names the kind.
func (k AttrKind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Attribute describes one feature column. Categorical attributes carry their
// closed category list; values in example vectors are indices into it.
type Attribute struct {
	Name       string   `json:"name"`
	Kind       AttrKind `json:"kind"`
	Categories []string `json:"categories,omitempty"`
}

// Schema is the ordered attribute list of a dataset.
type Schema struct {
	Attrs []Attribute `json:"attrs"`
}

// NewSchema validates and builds a schema.
func NewSchema(attrs []Attribute) (Schema, error) {
	seen := make(map[string]bool, len(attrs))
	for i, a := range attrs {
		if a.Name == "" {
			return Schema{}, fmt.Errorf("mlearn: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return Schema{}, fmt.Errorf("mlearn: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Kind {
		case Numeric:
			if len(a.Categories) != 0 {
				return Schema{}, fmt.Errorf("mlearn: numeric attribute %q has categories", a.Name)
			}
		case Categorical:
			if len(a.Categories) < 2 {
				return Schema{}, fmt.Errorf("mlearn: categorical attribute %q needs ≥2 categories", a.Name)
			}
		default:
			return Schema{}, fmt.Errorf("mlearn: attribute %q has invalid kind", a.Name)
		}
	}
	out := make([]Attribute, len(attrs))
	copy(out, attrs)
	return Schema{Attrs: out}, nil
}

// Len returns the number of attributes.
func (s Schema) Len() int { return len(s.Attrs) }

// Dataset is a labelled example matrix. X[i] is parallel to Schema.Attrs;
// categorical cells hold category indices. Y[i] is the class label — the
// reproduction uses 1 = legal scene (positive), 0 = attack (negative).
type Dataset struct {
	Schema Schema
	X      [][]float64
	Y      []int
}

// NewDataset builds an empty dataset over a schema.
func NewDataset(schema Schema) *Dataset {
	return &Dataset{Schema: schema}
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Add appends one validated example.
func (d *Dataset) Add(x []float64, y int) error {
	if len(x) != d.Schema.Len() {
		return fmt.Errorf("mlearn: example width %d, schema width %d", len(x), d.Schema.Len())
	}
	for i, a := range d.Schema.Attrs {
		if a.Kind == Categorical {
			idx := int(x[i])
			if float64(idx) != x[i] || idx < 0 || idx >= len(a.Categories) {
				return fmt.Errorf("mlearn: attribute %q: category index %v out of range", a.Name, x[i])
			}
		}
	}
	row := make([]float64, len(x))
	copy(row, x)
	d.X = append(d.X, row)
	d.Y = append(d.Y, y)
	return nil
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{Schema: d.Schema,
		X: make([][]float64, len(d.X)),
		Y: make([]int, len(d.Y)),
	}
	for i, row := range d.X {
		cp := make([]float64, len(row))
		copy(cp, row)
		out.X[i] = cp
	}
	copy(out.Y, d.Y)
	return out
}

// Subset selects rows by index (rows are copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Schema: d.Schema,
		X: make([][]float64, 0, len(idx)),
		Y: make([]int, 0, len(idx)),
	}
	for _, i := range idx {
		row := make([]float64, len(d.X[i]))
		copy(row, d.X[i])
		out.X = append(out.X, row)
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// Classes returns the distinct labels in ascending order.
func (d *Dataset) Classes() []int {
	set := make(map[int]bool)
	for _, y := range d.Y {
		set[y] = true
	}
	out := make([]int, 0, len(set))
	for y := range set {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// ClassCounts tallies examples per label.
func (d *Dataset) ClassCounts() map[int]int {
	out := make(map[int]int)
	for _, y := range d.Y {
		out[y]++
	}
	return out
}

// Shuffle permutes the dataset in place.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// SplitStratified splits into train/test with the given train ratio,
// preserving per-class proportions (the paper's 7:3 split).
func (d *Dataset) SplitStratified(trainRatio float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if trainRatio <= 0 || trainRatio >= 1 {
		return nil, nil, fmt.Errorf("mlearn: train ratio %v outside (0,1)", trainRatio)
	}
	if d.Len() == 0 {
		return nil, nil, fmt.Errorf("mlearn: empty dataset")
	}
	if rng == nil {
		return nil, nil, fmt.Errorf("mlearn: nil rng")
	}
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	var trainIdx, testIdx []int
	classes := d.Classes()
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		cut := int(float64(len(idx))*trainRatio + 0.5)
		if cut == 0 && len(idx) > 1 {
			cut = 1
		}
		if cut == len(idx) && len(idx) > 1 {
			cut = len(idx) - 1
		}
		trainIdx = append(trainIdx, idx[:cut]...)
		testIdx = append(testIdx, idx[cut:]...)
	}
	sort.Ints(trainIdx)
	sort.Ints(testIdx)
	return d.Subset(trainIdx), d.Subset(testIdx), nil
}

// KFoldStratified partitions the dataset into k stratified folds and returns
// per-fold (train, test) pairs.
func (d *Dataset) KFoldStratified(k int, rng *rand.Rand) ([][2]*Dataset, error) {
	if k < 2 {
		return nil, fmt.Errorf("mlearn: k must be ≥2, got %d", k)
	}
	if d.Len() < k {
		return nil, fmt.Errorf("mlearn: %d examples cannot fill %d folds", d.Len(), k)
	}
	if rng == nil {
		return nil, fmt.Errorf("mlearn: nil rng")
	}
	folds := make([][]int, k)
	byClass := make(map[int][]int)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	classes := d.Classes()
	next := 0
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			folds[next%k] = append(folds[next%k], i)
			next++
		}
	}
	out := make([][2]*Dataset, 0, k)
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		sort.Ints(trainIdx)
		testIdx := append([]int(nil), folds[f]...)
		sort.Ints(testIdx)
		out = append(out, [2]*Dataset{d.Subset(trainIdx), d.Subset(testIdx)})
	}
	return out, nil
}
