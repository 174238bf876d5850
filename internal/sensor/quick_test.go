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
		if !sameValues(a.Merge(empty), a) {
			return false
		}
		// Idempotence.
		if !sameValues(a.Merge(a), a) {
			return false
		}
		// Overlay wins; union of keys.
		m, av, bv := valuesOf(a.Merge(b)), valuesOf(a), valuesOf(b)
		for k, v := range bv {
			if !m[k].Equal(v) {
				return false
			}
		}
		for k, v := range av {
			if _, inB := bv[k]; !inB && !m[k].Equal(v) {
				return false
			}
		}
		return len(m) <= len(av)+len(bv)
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
		return sameValues(back, s) && back.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
