package mlearn

import "fmt"

// Classifier is the common face of every model in the reproduction.
type Classifier interface {
	// Fit trains on the dataset.
	Fit(d *Dataset) error
	// Predict labels one example vector (same layout as the training
	// schema).
	Predict(x []float64) int
}

// Confusion is the binary confusion matrix of Table V. The positive class
// is label 1 (a legal activity scene); the negative class is label 0 (an
// attack / illegal context).
type Confusion struct {
	TP, TN, FP, FN int
}

// Evaluate runs a trained classifier over a dataset and tallies the
// confusion matrix.
func Evaluate(c Classifier, d *Dataset) Confusion {
	var m Confusion
	for i, x := range d.X {
		m.Observe(d.Y[i], c.Predict(x))
	}
	return m
}

// Observe records one (actual, predicted) pair.
func (m *Confusion) Observe(actual, predicted int) {
	switch {
	case actual == 1 && predicted == 1:
		m.TP++
	case actual == 1 && predicted != 1:
		m.FN++
	case actual != 1 && predicted == 1:
		m.FP++
	default:
		m.TN++
	}
}

// Total returns the number of observations.
func (m Confusion) Total() int { return m.TP + m.TN + m.FP + m.FN }

// Accuracy is equation (1): (TP+TN) / (TP+TN+FP+FN).
func (m Confusion) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(t)
}

// Recall is equation (2): TP / (TP+FN).
func (m Confusion) Recall() float64 {
	d := m.TP + m.FN
	if d == 0 {
		return 0
	}
	return float64(m.TP) / float64(d)
}

// Precision is equation (3): TP / (TP+FP).
func (m Confusion) Precision() float64 {
	d := m.TP + m.FP
	if d == 0 {
		return 0
	}
	return float64(m.TP) / float64(d)
}

// FPR is equation (4), the false-alarm rate: FP / (FP+TN).
func (m Confusion) FPR() float64 {
	d := m.FP + m.TN
	if d == 0 {
		return 0
	}
	return float64(m.FP) / float64(d)
}

// FNR is equation (5), the miss rate: FN / (TP+FN).
func (m Confusion) FNR() float64 {
	d := m.TP + m.FN
	if d == 0 {
		return 0
	}
	return float64(m.FN) / float64(d)
}

// String renders the matrix for logs.
func (m Confusion) String() string {
	return fmt.Sprintf("TP=%d TN=%d FP=%d FN=%d acc=%.4f", m.TP, m.TN, m.FP, m.FN, m.Accuracy())
}

// Add merges another confusion matrix (for cross-validation pooling).
func (m Confusion) Add(o Confusion) Confusion {
	return Confusion{TP: m.TP + o.TP, TN: m.TN + o.TN, FP: m.FP + o.FP, FN: m.FN + o.FN}
}
