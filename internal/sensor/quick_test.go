package sensor

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// randomSnapshot draws a vocabulary-valid snapshot with a random subset of
// features.
func randomSnapshot(rng *rand.Rand) Snapshot {
	s := NewSnapshot(time.Unix(rng.Int63n(1<<30), 0))
	for _, d := range vocabulary {
		if rng.Intn(2) == 0 {
			continue
		}
		switch d.Type {
		case TypeBool:
			s.Set(d.Feature, Bool(rng.Intn(2) == 1))
		case TypeNumber:
			s.Set(d.Feature, Number(float64(rng.Intn(1000))/10))
		case TypeLabel:
			s.Set(d.Feature, Label(d.Labels[rng.Intn(len(d.Labels))]))
		}
	}
	return s
}

// TestMergePropertiesQuick checks algebraic properties of Merge: merging
// with an empty snapshot is identity on values; self-merge is idempotent;
// and the overlay's values always win.
func TestMergePropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSnapshot(rng)
		b := randomSnapshot(rng)

		// Identity.
		empty := NewSnapshot(time.Time{})
		id := a.Merge(empty)
		if len(id.Values) != len(a.Values) {
			return false
		}
		for k, v := range a.Values {
			if !id.Values[k].Equal(v) {
				return false
			}
		}
		// Idempotence.
		self := a.Merge(a)
		if len(self.Values) != len(a.Values) {
			return false
		}
		// Overlay wins; union of keys.
		m := a.Merge(b)
		for k, v := range b.Values {
			if !m.Values[k].Equal(v) {
				return false
			}
		}
		for k, v := range a.Values {
			if _, inB := b.Values[k]; !inB && !m.Values[k].Equal(v) {
				return false
			}
		}
		return len(m.Values) <= len(a.Values)+len(b.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotJSONQuick round-trips random snapshots through the unified
// JSON form.
func TestSnapshotJSONQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSnapshot(rng)
		data, err := s.MarshalJSON()
		if err != nil {
			return false
		}
		var back Snapshot
		if err := back.UnmarshalJSON(data); err != nil {
			return false
		}
		if len(back.Values) != len(s.Values) {
			return false
		}
		for k, v := range s.Values {
			if !back.Values[k].Equal(v) {
				return false
			}
		}
		return back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
