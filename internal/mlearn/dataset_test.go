package mlearn

import (
	"math"
	"math/rand"
	"testing"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema([]Attribute{
		{Name: "temp", Kind: Numeric},
		{Name: "weather", Kind: Categorical, Categories: []string{"sunny", "rain"}},
		{Name: "motion", Kind: Categorical, Categories: []string{"no", "yes"}},
	})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

// imbalanced builds a dataset with nPos positives and nNeg negatives that is
// linearly structured: positives are warm/sunny/motion, negatives cold/rain.
func imbalanced(t *testing.T, nPos, nNeg int, seed int64) *Dataset {
	t.Helper()
	d := NewDataset(testSchema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nPos; i++ {
		if err := d.Add([]float64{22 + rng.Float64()*6, 0, 1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nNeg; i++ {
		if err := d.Add([]float64{5 + rng.Float64()*6, 1, 0}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestNewSchemaValidation(t *testing.T) {
	cases := []struct {
		name  string
		attrs []Attribute
	}{
		{name: "empty name", attrs: []Attribute{{Name: "", Kind: Numeric}}},
		{name: "duplicate", attrs: []Attribute{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}},
		{name: "numeric with categories", attrs: []Attribute{{Name: "a", Kind: Numeric, Categories: []string{"x", "y"}}}},
		{name: "categorical too few", attrs: []Attribute{{Name: "a", Kind: Categorical, Categories: []string{"x"}}}},
		{name: "bad kind", attrs: []Attribute{{Name: "a"}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSchema(tt.attrs); err == nil {
				t.Error("want error")
			}
		})
	}
	s := testSchema(t)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDatasetAddValidation(t *testing.T) {
	d := NewDataset(testSchema(t))
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Error("want width error")
	}
	if err := d.Add([]float64{20, 5, 0}, 0); err == nil {
		t.Error("want category range error")
	}
	if err := d.Add([]float64{20, 0.5, 0}, 0); err == nil {
		t.Error("want non-integer category error")
	}
	x := []float64{20, 1, 0}
	if err := d.Add(x, 1); err != nil {
		t.Fatalf("Add: %v", err)
	}
	x[0] = 99 // rows are copied
	if d.X[0][0] != 20 {
		t.Error("Add must copy rows")
	}
}

func TestCloneAndSubsetIsolation(t *testing.T) {
	d := imbalanced(t, 5, 5, 1)
	c := d.Clone()
	c.X[0][0] = -999
	c.Y[0] = 7
	if d.X[0][0] == -999 || d.Y[0] == 7 {
		t.Error("Clone shares storage")
	}
	sub := d.Subset([]int{0, 9})
	if sub.Len() != 2 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	sub.X[0][0] = -1
	if d.X[0][0] == -1 {
		t.Error("Subset shares storage")
	}
}

func TestClassesAndCounts(t *testing.T) {
	d := imbalanced(t, 7, 3, 2)
	classes := d.Classes()
	if len(classes) != 2 || classes[0] != 0 || classes[1] != 1 {
		t.Errorf("Classes = %v", classes)
	}
	counts := d.ClassCounts()
	if counts[1] != 7 || counts[0] != 3 {
		t.Errorf("ClassCounts = %v", counts)
	}
}

func TestSplitStratifiedPreservesProportions(t *testing.T) {
	d := imbalanced(t, 700, 300, 3)
	train, test, err := d.SplitStratified(0.7, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("SplitStratified: %v", err)
	}
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split loses rows: %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	tc, sc := train.ClassCounts(), test.ClassCounts()
	if tc[1] != 490 || tc[0] != 210 {
		t.Errorf("train counts = %v", tc)
	}
	if sc[1] != 210 || sc[0] != 90 {
		t.Errorf("test counts = %v", sc)
	}
}

func TestSplitStratifiedErrors(t *testing.T) {
	d := imbalanced(t, 5, 5, 1)
	rng := rand.New(rand.NewSource(1))
	if _, _, err := d.SplitStratified(0, rng); err == nil {
		t.Error("want ratio error")
	}
	if _, _, err := d.SplitStratified(1, rng); err == nil {
		t.Error("want ratio error")
	}
	if _, _, err := d.SplitStratified(0.5, nil); err == nil {
		t.Error("want nil rng error")
	}
	empty := NewDataset(testSchema(t))
	if _, _, err := empty.SplitStratified(0.5, rng); err == nil {
		t.Error("want empty error")
	}
}

func TestSplitNeverEmptiesAClass(t *testing.T) {
	// Even with 2 examples per class, both splits keep one.
	d := imbalanced(t, 2, 2, 4)
	train, test, err := d.SplitStratified(0.9, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if train.ClassCounts()[0] == 0 || test.ClassCounts()[0] == 0 {
		t.Errorf("class 0 vanished: train %v test %v", train.ClassCounts(), test.ClassCounts())
	}
}

func TestKFoldStratified(t *testing.T) {
	d := imbalanced(t, 60, 40, 5)
	folds, err := d.KFoldStratified(5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("KFoldStratified: %v", err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	totalTest := 0
	for i, f := range folds {
		train, test := f[0], f[1]
		if train.Len()+test.Len() != d.Len() {
			t.Errorf("fold %d loses rows", i)
		}
		totalTest += test.Len()
		// Stratification: each test fold keeps both classes.
		cc := test.ClassCounts()
		if cc[0] == 0 || cc[1] == 0 {
			t.Errorf("fold %d test missing a class: %v", i, cc)
		}
	}
	if totalTest != d.Len() {
		t.Errorf("test folds cover %d rows, want %d", totalTest, d.Len())
	}
	if _, err := d.KFoldStratified(1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want k error")
	}
	if _, err := d.KFoldStratified(5, nil); err == nil {
		t.Error("want nil rng error")
	}
	tiny := imbalanced(t, 1, 1, 1)
	if _, err := tiny.KFoldStratified(5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("want too-few-examples error")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d := imbalanced(t, 50, 50, 6)
	// Mark each row so we can verify X/Y stay aligned: class 1 rows are warm.
	d.Shuffle(rand.New(rand.NewSource(3)))
	for i, row := range d.X {
		warm := row[0] > 15
		if warm != (d.Y[i] == 1) {
			t.Fatalf("row %d decoupled from its label after shuffle", i)
		}
	}
}

func TestMixedDistance(t *testing.T) {
	s := testSchema(t)
	a := []float64{3, 0, 1}
	b := []float64{0, 1, 1}
	// numeric diff 3 -> 9; categorical: weather differs (+1), motion same.
	want := math.Sqrt(10)
	if got := MixedDistance(s, a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("MixedDistance = %v, want %v", got, want)
	}
	if got := MixedDistance(s, a, a); got != 0 {
		t.Errorf("self distance = %v", got)
	}
}
