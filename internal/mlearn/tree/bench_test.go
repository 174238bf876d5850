package tree

import (
	"math/rand"
	"testing"

	"iotsid/internal/mlearn"
)

// benchDataset mirrors xorish without needing a *testing.T.
func benchDataset(b *testing.B, n int, seed int64) *mlearn.Dataset {
	b.Helper()
	s, err := mlearn.NewSchema([]mlearn.Attribute{
		{Name: "temp", Kind: mlearn.Numeric},
		{Name: "weather", Kind: mlearn.Categorical, Categories: []string{"sunny", "rain", "snow"}},
		{Name: "hour", Kind: mlearn.Numeric},
	})
	if err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
	}
	return d
}

func BenchmarkFit(b *testing.B) {
	d := benchDataset(b, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(Config{MinSamplesLeaf: 5})
		if err := tr.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	d := benchDataset(b, 1000, 1)
	tr := New(Config{MinSamplesLeaf: 5})
	if err := tr.Fit(d); err != nil {
		b.Fatal(err)
	}
	probe := d.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Predict(probe)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	train := benchDataset(b, 1000, 1)
	test := benchDataset(b, 500, 2)
	tr := New(Config{MinSamplesLeaf: 5})
	if err := tr.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc := mlearn.Evaluate(tr, test).Accuracy(); acc < 0.5 {
			b.Fatal("degenerate")
		}
	}
}

func BenchmarkPredictCompiled(b *testing.B) {
	d := benchDataset(b, 1000, 1)
	tr := New(Config{MinSamplesLeaf: 5})
	if err := tr.Fit(d); err != nil {
		b.Fatal(err)
	}
	c, err := tr.Compile()
	if err != nil {
		b.Fatal(err)
	}
	probe := d.X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Label(c.Leaf(probe))
	}
}

// benchEvalSet walks every row so the benchmark averages over leaves at
// all depths instead of one hot cached path.
func benchPredictSweep(b *testing.B, predict func(x []float64) int, xs [][]float64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = predict(xs[i%len(xs)])
	}
}

func BenchmarkPredictSweepTree(b *testing.B) {
	d := benchDataset(b, 5000, 1)
	tr := New(Config{MinSamplesLeaf: 2})
	if err := tr.Fit(d); err != nil {
		b.Fatal(err)
	}
	benchPredictSweep(b, tr.Predict, d.X)
}

func BenchmarkPredictSweepCompiled(b *testing.B) {
	d := benchDataset(b, 5000, 1)
	tr := New(Config{MinSamplesLeaf: 2})
	if err := tr.Fit(d); err != nil {
		b.Fatal(err)
	}
	c, err := tr.Compile()
	if err != nil {
		b.Fatal(err)
	}
	benchPredictSweep(b, func(x []float64) int { return c.Label(c.Leaf(x)) }, d.X)
}
