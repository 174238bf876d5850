package mlearn

import (
	"math"
	"testing"
)

// scoreFirst scores by the first attribute.
func scoreFirst(x []float64) float64 { return x[0] }

func rocDataset(t *testing.T, rows []struct {
	s float64
	y int
}) *Dataset {
	t.Helper()
	d := NewDataset(testSchema(t))
	for _, r := range rows {
		if err := d.Add([]float64{r.s, 0, 0}, r.y); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestROCPerfectSeparation(t *testing.T) {
	d := rocDataset(t, []struct {
		s float64
		y int
	}{
		{10, 1}, {9, 1}, {8, 1}, {3, 0}, {2, 0}, {1, 0},
	})
	points, auc, err := ROC(scoreFirst, d)
	if err != nil {
		t.Fatalf("ROC: %v", err)
	}
	if math.Abs(auc-1) > 1e-12 {
		t.Errorf("AUC = %v, want 1", auc)
	}
	first, last := points[0], points[len(points)-1]
	if first.FPR != 0 || first.TPR != 0 || last.FPR != 1 || last.TPR != 1 {
		t.Errorf("curve endpoints: %+v .. %+v", first, last)
	}
	// Monotone non-decreasing in both axes.
	for i := 1; i < len(points); i++ {
		if points[i].FPR < points[i-1].FPR || points[i].TPR < points[i-1].TPR {
			t.Errorf("curve not monotone at %d", i)
		}
	}
}

func TestROCAntiSeparation(t *testing.T) {
	d := rocDataset(t, []struct {
		s float64
		y int
	}{
		{1, 1}, {2, 1}, {9, 0}, {10, 0},
	})
	_, auc, err := ROC(scoreFirst, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc) > 1e-12 {
		t.Errorf("AUC = %v, want 0 for inverted scores", auc)
	}
}

func TestROCRandomScoresNearHalf(t *testing.T) {
	// Constant score: one tie group, AUC = 0.5 by trapezoid.
	d := rocDataset(t, []struct {
		s float64
		y int
	}{
		{5, 1}, {5, 0}, {5, 1}, {5, 0},
	})
	points, auc, err := ROC(scoreFirst, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("AUC = %v, want 0.5 for ties", auc)
	}
	if len(points) != 2 {
		t.Errorf("points = %d, want origin + single tie group", len(points))
	}
}

func TestROCErrors(t *testing.T) {
	if _, _, err := ROC(scoreFirst, NewDataset(testSchema(t))); err == nil {
		t.Error("want empty error")
	}
	onlyPos := rocDataset(t, []struct {
		s float64
		y int
	}{{1, 1}, {2, 1}})
	if _, _, err := ROC(scoreFirst, onlyPos); err == nil {
		t.Error("want single-class error")
	}
}

func TestProbaScorer(t *testing.T) {
	s := ProbaScorer(func(x []float64) map[int]float64 {
		return map[int]float64{0: 0.3, 1: 0.7}
	})
	if got := s([]float64{1}); got != 0.7 {
		t.Errorf("score = %v", got)
	}
	// Missing positive class scores 0.
	s = ProbaScorer(func(x []float64) map[int]float64 { return map[int]float64{0: 1} })
	if got := s([]float64{1}); got != 0 {
		t.Errorf("score = %v", got)
	}
}
