package eval

import (
	"bytes"
	"reflect"
	"testing"
)

// TestSuiteDeterminism builds the whole evaluation suite serially and at
// Workers=8 and demands identical Table VI rows and a byte-identical
// serialised feature memory — the end-to-end golden-equality gate over
// survey, corpus, dataset build, training and cross-validation.
func TestSuiteDeterminism(t *testing.T) {
	cfgSerial := DefaultConfig()
	cfgSerial.Workers = 1
	serial, err := NewSuite(cfgSerial)
	if err != nil {
		t.Fatal(err)
	}
	cfgPar := DefaultConfig()
	cfgPar.Workers = 8
	parallel, err := NewSuite(cfgPar)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.TableVI(), parallel.TableVI()) {
		t.Errorf("Table VI rows diverge:\nserial:   %+v\nparallel: %+v",
			serial.TableVI(), parallel.TableVI())
	}
	if serial.RenderTableVI() != parallel.RenderTableVI() {
		t.Error("rendered Table VI diverges")
	}
	var a, b bytes.Buffer
	if err := serial.Memory.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Memory.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialised feature memories diverge between worker counts")
	}
	if !reflect.DeepEqual(serial.Survey, parallel.Survey) {
		t.Error("survey results diverge (workers must not touch the survey stage)")
	}
}

// TestAblationDeterminism: the sweep runners produce identical row slices
// at any worker count (grid cells write index-addressed slots).
func TestAblationDeterminism(t *testing.T) {
	s := suiteForTest(t)

	serial := *s
	serial.Config.Workers = 1
	parallel := *s
	parallel.Config.Workers = 8

	sb, err := serial.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := parallel.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sb, pb) {
		t.Error("baseline rows diverge between worker counts")
	}

	st, err := serial.Transfer([]int64{1001, 2002})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := parallel.Transfer([]int64{1001, 2002})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, pt) {
		t.Error("transfer rows diverge between worker counts")
	}
}

// TestDatasetForMemoized: repeated DatasetFor calls return the one cached
// build instead of re-expanding the corpus.
func TestDatasetForMemoized(t *testing.T) {
	s := suiteForTest(t)
	for _, m := range s.Memory.Models() {
		a, err := s.DatasetFor(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.DatasetFor(m)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: DatasetFor rebuilt instead of returning the cached dataset", m)
		}
	}
}
