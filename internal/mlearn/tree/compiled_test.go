package tree

import (
	"encoding/json"
	"math/rand"
	"testing"

	"iotsid/internal/mlearn"
)

func fittedTree(t *testing.T, n int, seed int64) (*Tree, *mlearn.Dataset) {
	t.Helper()
	s, err := mlearn.NewSchema([]mlearn.Attribute{
		{Name: "temp", Kind: mlearn.Numeric},
		{Name: "weather", Kind: mlearn.Categorical, Categories: []string{"sunny", "rain", "snow"}},
		{Name: "hour", Kind: mlearn.Numeric},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := mlearn.NewDataset(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		temp := rng.Float64() * 40
		weather := float64(rng.Intn(3))
		y := 0
		if (temp > 20) != (weather == 1) {
			y = 1
		}
		if err := d.Add([]float64{temp, weather, rng.Float64() * 24}, y); err != nil {
			t.Fatal(err)
		}
	}
	tr := New(Config{MinSamplesLeaf: 2})
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	return tr, d
}

// randomProbe draws a feature vector over the fitted schema's domain,
// including out-of-domain categorical values so the compiled categorical
// test is exercised on both branches.
func randomProbe(rng *rand.Rand) []float64 {
	return []float64{
		rng.Float64()*60 - 10,
		float64(rng.Intn(5)), // two values outside the 3-category domain
		rng.Float64() * 30,
	}
}

func TestCompiledMatchesTreeOnRandomProbes(t *testing.T) {
	tr, d := fittedTree(t, 2000, 11)
	c, err := tr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c.Width() != 3 {
		t.Fatalf("Width = %d", c.Width())
	}
	if len(c.nodes) != tr.NodeCount() {
		t.Fatalf("compiled nodes = %d, tree has %d", len(c.nodes), tr.NodeCount())
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		x := randomProbe(rng)
		if got, want := c.Label(c.Leaf(x)), tr.Predict(x); got != want {
			t.Fatalf("probe %d: compiled = %d, tree = %d (x = %v)", i, got, want, x)
		}
	}
	// Training rows too.
	for i, x := range d.X {
		if got, want := c.Label(c.Leaf(x)), tr.Predict(x); got != want {
			t.Fatalf("train row %d: compiled = %d, tree = %d", i, got, want)
		}
	}
}

func TestCompiledSurvivesSerializeRoundTrip(t *testing.T) {
	tr, _ := fittedTree(t, 1500, 21)
	before, err := tr.Compile()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back Tree
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	after, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(before.nodes) != len(after.nodes) {
		t.Fatalf("node count diverged: %d vs %d", len(before.nodes), len(after.nodes))
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 10000; i++ {
		x := randomProbe(rng)
		if got, want := after.Label(after.Leaf(x)), before.Label(before.Leaf(x)); got != want {
			t.Fatalf("probe %d: reloaded compiled = %d, original = %d", i, got, want)
		}
	}
}

func TestCompileUnfitted(t *testing.T) {
	if _, err := New(Config{}).Compile(); err == nil {
		t.Error("want unfitted error")
	}
}
