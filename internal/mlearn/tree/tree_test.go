package tree

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"iotsid/internal/mlearn"
)

func schema(t *testing.T) mlearn.Schema {
	t.Helper()
	s, err := mlearn.NewSchema([]mlearn.Attribute{
		{Name: "temp", Kind: mlearn.Numeric},
		{Name: "weather", Kind: mlearn.Categorical, Categories: []string{"sunny", "rain", "snow"}},
		{Name: "hour", Kind: mlearn.Numeric},
	})
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

// xorish builds a dataset that needs at least two splits: positive iff
// (temp > 20) XOR (weather == rain).
func xorish(t *testing.T, n int, seed int64) *mlearn.Dataset {
	t.Helper()
	d := mlearn.NewDataset(schema(t))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		temp := rng.Float64() * 40
		weather := float64(rng.Intn(3))
		hour := rng.Float64() * 24
		y := 0
		if (temp > 20) != (weather == 1) {
			y = 1
		}
		if err := d.Add([]float64{temp, weather, hour}, y); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestFitPerfectOnSeparable(t *testing.T) {
	for _, crit := range []Criterion{Gini, Entropy, GainRatio} {
		t.Run(crit.String(), func(t *testing.T) {
			d := xorish(t, 400, 1)
			tr := New(Config{Criterion: crit})
			if err := tr.Fit(d); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			m := mlearn.Evaluate(tr, d)
			if m.Accuracy() != 1 {
				t.Errorf("training accuracy = %v, want 1", m.Accuracy())
			}
			// Generalises to a fresh draw of the same concept.
			test := xorish(t, 400, 2)
			m = mlearn.Evaluate(tr, test)
			if m.Accuracy() < 0.95 {
				t.Errorf("test accuracy = %v", m.Accuracy())
			}
		})
	}
}

func TestFitEmptyErrors(t *testing.T) {
	if err := New(Config{}).Fit(mlearn.NewDataset(schema(t))); err == nil {
		t.Error("want empty error")
	}
}

func TestPredictUnfitted(t *testing.T) {
	if got := New(Config{}).Predict([]float64{1, 0, 0}); got != 0 {
		t.Errorf("unfitted Predict = %d", got)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	d := xorish(t, 400, 3)
	tr := New(Config{MaxDepth: 1})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := tr.Depth(); got > 1 {
		t.Errorf("Depth = %d, want ≤1", got)
	}
	// Depth 1 cannot solve XOR.
	if m := mlearn.Evaluate(tr, d); m.Accuracy() >= 0.95 {
		t.Errorf("stump accuracy %v suspiciously high for XOR", m.Accuracy())
	}
	deep := New(Config{})
	if err := deep.Fit(d); err != nil {
		t.Fatal(err)
	}
	if deep.Depth() < 2 {
		t.Errorf("unbounded tree depth = %d, want ≥2 for XOR", deep.Depth())
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	d := xorish(t, 200, 4)
	tr := New(Config{MinSamplesLeaf: 50})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	// Every leaf holds ≥50 samples; verify via node counts.
	verifyLeafSizes(t, tr.root, 50)
}

func verifyLeafSizes(t *testing.T, n *node, min int) {
	t.Helper()
	if n == nil {
		return
	}
	if n.Leaf {
		if n.Samples < min {
			t.Errorf("leaf with %d samples, want ≥%d", n.Samples, min)
		}
		return
	}
	verifyLeafSizes(t, n.Left, min)
	verifyLeafSizes(t, n.Right, min)
}

func TestPureNodeStops(t *testing.T) {
	d := mlearn.NewDataset(schema(t))
	for i := 0; i < 10; i++ {
		if err := d.Add([]float64{float64(i), 0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 1 {
		t.Errorf("pure dataset grew %d nodes", tr.NodeCount())
	}
	if tr.Predict([]float64{99, 2, 12}) != 1 {
		t.Error("pure tree predicts wrong class")
	}
}

func TestCategoricalOnlySplit(t *testing.T) {
	// Positive iff weather == snow; temp/hour are pure noise constants.
	d := mlearn.NewDataset(schema(t))
	for i := 0; i < 60; i++ {
		w := float64(i % 3)
		y := 0
		if w == 2 {
			y = 1
		}
		if err := d.Add([]float64{5, w, 12}, y); err != nil {
			t.Fatal(err)
		}
	}
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if m := mlearn.Evaluate(tr, d); m.Accuracy() != 1 {
		t.Errorf("accuracy = %v", m.Accuracy())
	}
	weights, err := tr.FeatureWeights()
	if err != nil {
		t.Fatal(err)
	}
	if weights[0].Attr != "weather" || weights[0].Weight != 1 {
		t.Errorf("weights = %v, want all weight on weather", weights)
	}
}

func TestFeatureWeightsNormalisedAndRanked(t *testing.T) {
	d := xorish(t, 500, 5)
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	weights, err := tr.FeatureWeights()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range weights {
		if w.Weight < 0 {
			t.Errorf("negative weight %v", w)
		}
		sum += w.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
	// temp and weather carry the signal; hour is noise.
	rank := map[string]int{}
	for i, w := range weights {
		rank[w.Attr] = i
	}
	if rank["hour"] < rank["temp"] || rank["hour"] < rank["weather"] {
		t.Errorf("noise attribute outranks signal: %v", weights)
	}
	// Unfitted tree errors.
	if _, err := New(Config{}).FeatureWeights(); err == nil {
		t.Error("want unfitted error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d := xorish(t, 300, 6)
	tr := New(Config{Criterion: Entropy, MaxDepth: 6})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// Identical predictions on a probe grid.
	probe := xorish(t, 200, 7)
	for i, x := range probe.X {
		if tr.Predict(x) != back.Predict(x) {
			t.Fatalf("prediction diverges on row %d", i)
		}
	}
	// Weights survive.
	w1, _ := tr.FeatureWeights()
	w2, _ := back.FeatureWeights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Errorf("weights diverge: %v vs %v", w1[i], w2[i])
		}
	}
	if back.Config().Criterion != Entropy {
		t.Error("config lost")
	}
}

func TestJSONErrors(t *testing.T) {
	if _, err := json.Marshal(New(Config{})); err == nil {
		t.Error("want marshal error on unfitted tree")
	}
	var tr Tree
	if err := json.Unmarshal([]byte(`{"config":{},"schema":{"attrs":[]},"root":null}`), &tr); err == nil {
		t.Error("want error for missing root")
	}
	if err := json.Unmarshal([]byte(`not json`), &tr); err == nil {
		t.Error("want syntax error")
	}
	// Corrupt split attribute index.
	bad := `{"config":{},"schema":{"attrs":[{"name":"a","kind":1}]},"importances":[0],
	  "root":{"leaf":false,"attr":5,"numeric":true,
	    "left":{"leaf":true,"class":0,"samples":1},
	    "right":{"leaf":true,"class":1,"samples":1},"samples":2}}`
	if err := json.Unmarshal([]byte(bad), &tr); err == nil {
		t.Error("want validation error for attr out of range")
	}
}

func TestPruneCollapsesNoise(t *testing.T) {
	// Signal: temp > 20. Add label noise so the unpruned tree overfits.
	rng := rand.New(rand.NewSource(8))
	train := mlearn.NewDataset(schema(t))
	val := mlearn.NewDataset(schema(t))
	gen := func(d *mlearn.Dataset, n int, noisy bool) {
		for i := 0; i < n; i++ {
			temp := rng.Float64() * 40
			y := 0
			if temp > 20 {
				y = 1
			}
			if noisy && rng.Float64() < 0.15 {
				y = 1 - y
			}
			if err := d.Add([]float64{temp, float64(rng.Intn(3)), rng.Float64() * 24}, y); err != nil {
				t.Fatal(err)
			}
		}
	}
	gen(train, 400, true)
	gen(val, 200, false)
	tr := New(Config{})
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	before := tr.NodeCount()
	accBefore := mlearn.Evaluate(tr, val).Accuracy()
	if err := tr.Prune(val); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	after := tr.NodeCount()
	accAfter := mlearn.Evaluate(tr, val).Accuracy()
	if after >= before {
		t.Errorf("pruning did not shrink the tree: %d -> %d", before, after)
	}
	if accAfter < accBefore {
		t.Errorf("pruning hurt validation accuracy: %v -> %v", accBefore, accAfter)
	}
}

func TestPruneErrors(t *testing.T) {
	tr := New(Config{})
	d := xorish(t, 50, 9)
	if err := tr.Prune(d); err == nil {
		t.Error("want unfitted error")
	}
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := tr.Prune(mlearn.NewDataset(schema(t))); err == nil {
		t.Error("want empty validation error")
	}
	other, _ := mlearn.NewSchema([]mlearn.Attribute{{Name: "x", Kind: mlearn.Numeric}})
	od := mlearn.NewDataset(other)
	if err := od.Add([]float64{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Prune(od); err == nil {
		t.Error("want schema mismatch error")
	}
}

func TestDeterministicFit(t *testing.T) {
	d := xorish(t, 300, 10)
	a, b := New(Config{}), New(Config{})
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	probe := xorish(t, 100, 11)
	for i, x := range probe.X {
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("non-deterministic prediction at %d", i)
		}
	}
	if a.NodeCount() != b.NodeCount() {
		t.Error("non-deterministic structure")
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || Entropy.String() != "entropy" || GainRatio.String() != "gain_ratio" {
		t.Error("criterion names wrong")
	}
	if Criterion(9).String() != "criterion(9)" {
		t.Error("unknown criterion name")
	}
}

func TestMinImpurityDecrease(t *testing.T) {
	d := xorish(t, 300, 12)
	tr := New(Config{MinImpurityDecrease: 10}) // impossible bar
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.NodeCount() != 1 {
		t.Errorf("tree grew %d nodes despite impossible gain bar", tr.NodeCount())
	}
}

func TestDOTExport(t *testing.T) {
	d := xorish(t, 200, 13)
	tr := New(Config{MaxDepth: 3})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	dot, err := tr.DOT("window")
	if err != nil {
		t.Fatalf("DOT: %v", err)
	}
	for _, want := range []string{`digraph "window"`, "yes", "no", "class ", "samples"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// One node line per tree node.
	if got := strings.Count(dot, "  n"); got < tr.NodeCount() {
		t.Errorf("DOT has %d node/edge lines for %d nodes", got, tr.NodeCount())
	}
	// Unfitted tree errors; empty name defaults.
	if _, err := New(Config{}).DOT(""); err == nil {
		t.Error("want unfitted error")
	}
	if dot2, err := tr.DOT(""); err != nil || !strings.Contains(dot2, `digraph "tree"`) {
		t.Errorf("default name: %v", err)
	}
}

func TestExplainPath(t *testing.T) {
	d := xorish(t, 400, 21)
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		steps, class, err := tr.Explain(d.X[i])
		if err != nil {
			t.Fatalf("Explain: %v", err)
		}
		if class != tr.Predict(d.X[i]) {
			t.Fatalf("Explain class %d != Predict %d", class, tr.Predict(d.X[i]))
		}
		if len(steps) == 0 {
			t.Fatal("no steps on a non-trivial tree")
		}
		for _, s := range steps {
			if s.Condition == "" || s.Attr == "" || s.Samples <= 0 {
				t.Fatalf("malformed step %+v", s)
			}
		}
		str, err := tr.ExplainString(d.X[i])
		if err != nil || !strings.Contains(str, "class ") {
			t.Fatalf("ExplainString = %q, %v", str, err)
		}
	}
	if _, _, err := New(Config{}).Explain(d.X[0]); err == nil {
		t.Error("want unfitted error")
	}
	if _, err := New(Config{}).ExplainString(d.X[0]); err == nil {
		t.Error("want unfitted error")
	}
}

// TestExplainLeafMatchesWalk: rendering from the compiled leaf index alone
// gives exactly the explaining walk's text, and an index that is not a
// leaf is refused.
func TestExplainLeafMatchesWalk(t *testing.T) {
	d := xorish(t, 400, 21)
	tr := New(Config{})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	c, err := tr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		leaf := c.Leaf(x)
		if c.Label(leaf) != tr.Predict(x) {
			t.Fatalf("example %d: leaf %d labels %d, tree predicts %d", i, leaf, c.Label(leaf), tr.Predict(x))
		}
		want, _ := tr.ExplainString(x)
		if got, err := tr.ExplainLeaf(int(leaf)); err != nil || got != want {
			t.Fatalf("example %d: ExplainLeaf(%d) = %q, %v; want %q", i, leaf, got, err, want)
		}
	}
	for _, bad := range []int{-1, 0, c.NodeCount()} {
		if _, err := tr.ExplainLeaf(bad); err == nil {
			t.Errorf("ExplainLeaf(%d) succeeded on a non-leaf index", bad)
		}
	}
	if _, err := New(Config{}).ExplainLeaf(0); err == nil {
		t.Error("want unfitted error")
	}
}
