package sensor

import (
	"encoding/json"
	"testing"
	"time"
)

var testTime = time.Date(2021, 3, 14, 15, 9, 26, 0, time.UTC)

func sampleSnapshot() Snapshot {
	s := NewSnapshot(testTime)
	s.Set(FeatSmoke, Bool(false))
	s.Set(FeatTempIndoor, Number(22.5))
	s.Set(FeatWeather, Label(WeatherRain))
	s.Set(FeatDoorLock, Label(LockLocked))
	return s
}

func TestSnapshotAccessors(t *testing.T) {
	s := sampleSnapshot()
	if s.Bool(FeatSmoke) {
		t.Error("smoke should be false")
	}
	if s.Bool(FeatMotion) {
		t.Error("absent boolean should default false")
	}
	if n, ok := s.Number(FeatTempIndoor); !ok || n != 22.5 {
		t.Errorf("temp = %v,%v", n, ok)
	}
	if _, ok := s.Number(FeatHumidity); ok {
		t.Error("absent number should not be ok")
	}
	if v, _ := s.Get(FeatWeather); v != Label(WeatherRain) {
		t.Errorf("weather = %v", v)
	}
	temp, _ := s.Get(FeatTempIndoor)
	if l, ok := temp.Label(); ok {
		t.Errorf("Label on a number = %q", l)
	}
	if v, ok := s.Get(FeatNoise); ok || !v.IsZero() {
		t.Errorf("Get on absent = %v, %v", v, ok)
	}
}

func TestSnapshotCloneIsolation(t *testing.T) {
	s := sampleSnapshot()
	c := s.Clone()
	c.Set(FeatSmoke, Bool(true))
	if s.Bool(FeatSmoke) {
		t.Error("mutating clone leaked into original")
	}
}

func TestSnapshotMerge(t *testing.T) {
	s := sampleSnapshot()
	o := NewSnapshot(testTime.Add(time.Minute))
	o.Set(FeatSmoke, Bool(true))
	o.Set(FeatMotion, Bool(true))

	m := s.Merge(o)
	if !m.Bool(FeatSmoke) {
		t.Error("overlay value should win")
	}
	if !m.Bool(FeatMotion) {
		t.Error("overlay-only value missing")
	}
	if n, ok := m.Number(FeatTempIndoor); !ok || n != 22.5 {
		t.Error("base value lost in merge")
	}
	if !m.At.Equal(testTime.Add(time.Minute)) {
		t.Errorf("merge timestamp = %v", m.At)
	}
	if s.Bool(FeatSmoke) {
		t.Error("merge mutated receiver")
	}
}

func TestSnapshotFeaturesSorted(t *testing.T) {
	s := sampleSnapshot()
	feats := s.Features()
	if len(feats) != 4 {
		t.Fatalf("len = %d", len(feats))
	}
	for i := 1; i < len(feats); i++ {
		if feats[i-1] >= feats[i] {
			t.Errorf("features not sorted: %v", feats)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.At.Equal(s.At) {
		t.Errorf("At = %v, want %v", back.At, s.At)
	}
	if !sameValues(back, s) {
		t.Errorf("values = %v, want %v", valuesOf(back), valuesOf(s))
	}
}

func TestSnapshotValidate(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		if err := sampleSnapshot().Validate(); err != nil {
			t.Errorf("Validate() = %v", err)
		}
	})
	t.Run("unknown feature", func(t *testing.T) {
		// A snapshot cannot hold a feature outside the vocabulary: Set
		// refuses one, so Validate never meets it.
		for _, f := range []Feature{0, FeatureLimit} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Set(%d) did not panic", f)
					}
				}()
				s := NewSnapshot(testTime)
				s.Set(f, Bool(true))
			}()
		}
	})
	t.Run("wrong type", func(t *testing.T) {
		s := NewSnapshot(testTime)
		s.Set(FeatSmoke, Number(1))
		if s.Validate() == nil {
			t.Error("want error for wrong type")
		}
	})
	t.Run("label outside domain", func(t *testing.T) {
		s := NewSnapshot(testTime)
		s.Set(FeatWeather, Label(LockLocked))
		if s.Validate() == nil {
			t.Error("want error for out-of-domain label")
		}
	})
	t.Run("absent value", func(t *testing.T) {
		s := NewSnapshot(testTime)
		s.Set(FeatSmoke, Value{})
		if s.Validate() == nil {
			t.Error("want error for absent value")
		}
	})
}

// TestSetOnZeroValueSnapshot is the regression test for the nil-map panic:
// Set on a zero-value Snapshot must lazily allocate the values instead of
// panicking.
func TestSetOnZeroValueSnapshot(t *testing.T) {
	var s Snapshot
	s.Set(FeatSmoke, Bool(true))
	if !s.Bool(FeatSmoke) {
		t.Error("value lost after lazy allocation")
	}
	if s.Len() != 1 {
		t.Errorf("values = %v", valuesOf(s))
	}
	// A pointer to a zero-value snapshot works the same way.
	p := &Snapshot{}
	p.Set(FeatMotion, Bool(true))
	if !p.Bool(FeatMotion) {
		t.Error("pointer target lost value")
	}
}
