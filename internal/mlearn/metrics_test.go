package mlearn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionTableVExample(t *testing.T) {
	m := Confusion{TP: 50, TN: 30, FP: 5, FN: 15}
	if m.Total() != 100 {
		t.Errorf("Total = %d", m.Total())
	}
	if got := m.Accuracy(); math.Abs(got-0.80) > 1e-12 {
		t.Errorf("Accuracy = %v", got) // (50+30)/100, eqn 1
	}
	if got := m.Recall(); math.Abs(got-50.0/65) > 1e-12 {
		t.Errorf("Recall = %v", got) // TP/(TP+FN), eqn 2
	}
	if got := m.Precision(); math.Abs(got-50.0/55) > 1e-12 {
		t.Errorf("Precision = %v", got) // TP/(TP+FP), eqn 3
	}
	if got := m.FPR(); math.Abs(got-5.0/35) > 1e-12 {
		t.Errorf("FPR = %v", got) // FP/(FP+TN), eqn 4
	}
	if got := m.FNR(); math.Abs(got-15.0/65) > 1e-12 {
		t.Errorf("FNR = %v", got) // FN/(TP+FN), eqn 5
	}
}

func TestConfusionZeroDenominators(t *testing.T) {
	var m Confusion
	for _, f := range []func() float64{m.Accuracy, m.Recall, m.Precision, m.FPR, m.FNR} {
		if got := f(); got != 0 {
			t.Errorf("zero matrix metric = %v", got)
		}
	}
}

func TestConfusionObserve(t *testing.T) {
	var m Confusion
	m.Observe(1, 1) // TP
	m.Observe(1, 0) // FN
	m.Observe(0, 1) // FP
	m.Observe(0, 0) // TN
	if m.TP != 1 || m.FN != 1 || m.FP != 1 || m.TN != 1 {
		t.Errorf("m = %+v", m)
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, TN: 2, FP: 3, FN: 4}
	b := Confusion{TP: 10, TN: 20, FP: 30, FN: 40}
	got := a.Add(b)
	if got != (Confusion{TP: 11, TN: 22, FP: 33, FN: 44}) {
		t.Errorf("Add = %+v", got)
	}
}

// Property: the identities the paper's equations imply hold for any matrix —
// Recall + FNR = 1 (when defined) and FPR is bounded by [0,1].
func TestConfusionIdentitiesProperty(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		m := Confusion{TP: int(tp), TN: int(tn), FP: int(fp), FN: int(fn)}
		if m.TP+m.FN > 0 {
			if math.Abs(m.Recall()+m.FNR()-1) > 1e-12 {
				return false
			}
		}
		for _, v := range []float64{m.Accuracy(), m.Recall(), m.Precision(), m.FPR(), m.FNR()} {
			if v < 0 || v > 1 {
				return false
			}
		}
		// Accuracy decomposition.
		if m.Total() > 0 {
			want := float64(m.TP+m.TN) / float64(m.Total())
			if math.Abs(m.Accuracy()-want) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

type constClassifier int

func (c constClassifier) Fit(*Dataset) error    { return nil }
func (c constClassifier) Predict([]float64) int { return int(c) }

func TestEvaluate(t *testing.T) {
	d := imbalanced(t, 6, 4, 9)
	m := Evaluate(constClassifier(1), d)
	if m.TP != 6 || m.FP != 4 || m.TN != 0 || m.FN != 0 {
		t.Errorf("always-positive confusion = %+v", m)
	}
	if m.Recall() != 1 || m.FPR() != 1 {
		t.Errorf("always-positive metrics: recall=%v fpr=%v", m.Recall(), m.FPR())
	}
	m = Evaluate(constClassifier(0), d)
	if m.TN != 4 || m.FN != 6 {
		t.Errorf("always-negative confusion = %+v", m)
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}
