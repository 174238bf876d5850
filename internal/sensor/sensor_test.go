package sensor

import (
	"math"
	"testing"
)

// TestTimeBucketIndex pins the four daily phases, the boundary hours, the
// wrap-around behavior, and the hostile-input clamp the sequence judge
// relies on (every input must land inside the symbol alphabet).
func TestTimeBucketIndex(t *testing.T) {
	cases := []struct {
		hour float64
		want int
	}{
		{0, 0}, {3, 0}, {5.99, 0}, // night
		{6, 1}, {9, 1}, {11.5, 1}, // morning
		{12, 2}, {15, 2}, {17.9, 2}, // afternoon
		{18, 3}, {20, 3}, {21.9, 3}, // evening
		{22, 0}, {23.5, 0}, // night again
		{24, 0}, {25, 0}, {30, 1}, {47.9, 0}, // wraps past midnight
		{-1, 0}, {-3, 3}, {-14, 1}, // negative hours wrap backwards (-3 → 21, evening)
		{math.NaN(), 0},   // NaN clamps to night
		{math.Inf(1), 0},  // +Inf clamps
		{math.Inf(-1), 0}, // -Inf clamps
		{1e12, 0},         // absurd magnitude clamps
	}
	for _, c := range cases {
		if got := TimeBucketIndex(c.hour); got != c.want {
			t.Errorf("TimeBucketIndex(%v) = %d, want %d", c.hour, got, c.want)
		}
	}
}

// TestFeatureTypeString covers every named type and the out-of-range
// fallback.
func TestFeatureTypeString(t *testing.T) {
	cases := map[FeatureType]string{
		TypeBool:       "bool",
		TypeNumber:     "number",
		TypeLabel:      "label",
		FeatureType(9): "type(9)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("FeatureType(%d).String() = %q, want %q", int(typ), got, want)
		}
	}
}

// TestMustDescribeUnknownPanics: passing a feature outside the vocabulary
// is a programming error and must panic rather than return a zero
// descriptor.
func TestMustDescribeUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDescribe on an unknown feature did not panic")
		}
	}()
	MustDescribe(FeatureLimit)
}
