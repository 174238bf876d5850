package sensor

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		typ  FeatureType
		str  string
	}{
		{name: "bool true", v: Bool(true), typ: TypeBool, str: "true"},
		{name: "bool false", v: Bool(false), typ: TypeBool, str: "false"},
		{name: "number", v: Number(21.5), typ: TypeNumber, str: "21.5"},
		{name: "label", v: Label(WeatherRain), typ: TypeLabel, str: "rain"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Type(); got != tt.typ {
				t.Errorf("Type() = %v, want %v", got, tt.typ)
			}
			if got := tt.v.String(); got != tt.str {
				t.Errorf("String() = %q, want %q", got, tt.str)
			}
			if tt.v.IsZero() {
				t.Error("IsZero() = true for constructed value")
			}
		})
	}
}

func TestValueZero(t *testing.T) {
	var v Value
	if !v.IsZero() {
		t.Fatal("zero Value must report IsZero")
	}
	if got := v.String(); got != "<absent>" {
		t.Errorf("String() = %q", got)
	}
	if _, ok := v.Numeric(); ok {
		t.Error("Numeric() ok for absent value")
	}
}

func TestValueNumericCoercion(t *testing.T) {
	if n, ok := Bool(true).Numeric(); !ok || n != 1 {
		t.Errorf("Bool(true).Numeric() = %v,%v", n, ok)
	}
	if n, ok := Bool(false).Numeric(); !ok || n != 0 {
		t.Errorf("Bool(false).Numeric() = %v,%v", n, ok)
	}
	if n, ok := Number(3.5).Numeric(); !ok || n != 3.5 {
		t.Errorf("Number(3.5).Numeric() = %v,%v", n, ok)
	}
	if _, ok := Label(WeatherRain).Numeric(); ok {
		t.Error("Label must not coerce to numeric")
	}
}

func TestValueJSONRoundTrip(t *testing.T) {
	for _, v := range []Value{Bool(true), Bool(false), Number(-3.25), Number(0), Label(WeatherSunny), Label(BucketEvening)} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !back.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestValueJSONNumberRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true // not representable in JSON
		}
		data, err := json.Marshal(Number(x))
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		n, ok := back.Number()
		return ok && n == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFromAny(t *testing.T) {
	tests := []struct {
		name string
		in   any
		want Value
		ok   bool
	}{
		{name: "bool", in: true, want: Bool(true), ok: true},
		{name: "float", in: 2.5, want: Number(2.5), ok: true},
		{name: "int", in: 7, want: Number(7), ok: true},
		{name: "int64", in: int64(-2), want: Number(-2), ok: true},
		{name: "json number", in: json.Number("10.5"), want: Number(10.5), ok: true},
		{name: "string", in: "rain", ok: false},
		{name: "nil", in: nil, want: Value{}, ok: true},
		{name: "unsupported", in: []int{1}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := FromAny(tt.in)
			if tt.ok != (err == nil) {
				t.Fatalf("err = %v, want ok=%v", err, tt.ok)
			}
			if err == nil && !got.Equal(tt.want) {
				t.Errorf("FromAny(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindSmoke.String() != "smoke" {
		t.Errorf("KindSmoke = %q", KindSmoke.String())
	}
	if Kind(999).String() != "kind(999)" {
		t.Errorf("Kind(999) = %q", Kind(999).String())
	}
}

func TestVocabularyCompleteAndConsistent(t *testing.T) {
	vocab := vocabulary
	if len(vocab) < 18 {
		t.Fatalf("vocabulary too small: %d", len(vocab))
	}
	seen := make(map[Feature]bool)
	for _, d := range vocab {
		if seen[d.Feature] {
			t.Errorf("duplicate feature %q", d.Feature)
		}
		seen[d.Feature] = true
		if _, ok := kindNames[d.Source]; !ok {
			t.Errorf("feature %q has invalid source kind", d.Feature)
		}
		if d.Type == TypeLabel && len(d.Labels) == 0 {
			t.Errorf("label feature %q without domain", d.Feature)
		}
		if d.Type != TypeLabel && len(d.Labels) != 0 {
			t.Errorf("non-label feature %q with label domain", d.Feature)
		}
		got, ok := Describe(d.Feature)
		if !ok || got.Feature != d.Feature {
			t.Errorf("Describe(%q) mismatch", d.Feature)
		}
	}
	for _, f := range []Feature{0, FeatureLimit, 255} {
		if _, ok := Describe(f); ok {
			t.Errorf("Describe(%d) should fail: outside the vocabulary", f)
		}
	}
}

// TestVocabularyOrdinals pins the closed vocabulary's encoding: ordinals
// 1..NumFeatures in strictly ascending name order, so that ordinal order
// is the sorted-name order every encoded scene and digest was built on,
// and names that parse back to their features through every edge.
func TestVocabularyOrdinals(t *testing.T) {
	if len(vocabulary) != NumFeatures || NumFeatures != 21 {
		t.Fatalf("vocabulary has %d features, NumFeatures %d, want 21", len(vocabulary), NumFeatures)
	}
	for i, d := range vocabulary {
		f := Feature(i + 1)
		if d.Feature != f || !f.Valid() {
			t.Fatalf("vocabulary[%d] is %d, want ordinal %d", i, d.Feature, f)
		}
		if i > 0 && vocabulary[i-1].Name >= d.Name {
			t.Errorf("%q sorts before %q but has the larger ordinal", d.Name, vocabulary[i-1].Name)
		}
		if f.String() != d.Name {
			t.Errorf("Feature(%d).String() = %q, want %q", f, f.String(), d.Name)
		}
		if g, ok := ParseFeature(d.Name); !ok || g != f {
			t.Errorf("ParseFeature(%q) = %d, %v", d.Name, g, ok)
		}
		text, err := f.MarshalText()
		var back Feature
		if err != nil || back.UnmarshalText(text) != nil || back != f {
			t.Errorf("text round trip of %q: %q, %v, back %d", d.Name, text, err, back)
		}
	}
	for _, name := range []string{"", "nope", "Smoke", "smoke ", "air_qualit"} {
		if f, ok := ParseFeature(name); ok {
			t.Errorf("ParseFeature(%q) = %d, want no feature", name, f)
		}
		var f Feature
		var uf *VocabularyError
		if err := f.UnmarshalText([]byte(name)); !errors.As(err, &uf) || uf.Name != name {
			t.Errorf("UnmarshalText(%q) = %v, want an unknown-feature error naming it", name, err)
		}
	}
	for _, f := range []Feature{0, FeatureLimit, 255} {
		if f.Valid() {
			t.Errorf("Feature(%d) is valid", f)
		}
		if _, err := f.MarshalText(); err == nil {
			t.Errorf("Feature(%d).MarshalText succeeded", f)
		}
		if want := "feature(" + strconv.Itoa(int(f)) + ")"; f.String() != want {
			t.Errorf("Feature(%d).String() = %q, want %q", f, f.String(), want)
		}
	}
}

func TestMustDescribePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDescribe should panic for unknown feature")
		}
	}()
	MustDescribe(0)
}
