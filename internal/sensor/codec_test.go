package sensor

import "testing"

// windowScene is a window-model scene: the nine vocabulary features of
// Fig 6, as the fleet's gateways push them.
func windowScene() Snapshot {
	s := NewSnapshot(testTime)
	s.Set(FeatSmoke, Bool(false))
	s.Set(FeatGas, Bool(false))
	s.Set(FeatVoiceCmd, Bool(true))
	s.Set(FeatDoorLock, Label(LockLocked))
	s.Set(FeatTempIndoor, Number(22.5))
	s.Set(FeatAirQuality, Number(41))
	s.Set(FeatWeather, Label(WeatherRain))
	s.Set(FeatMotion, Bool(true))
	s.Set(FeatHour, Number(14.25))
	return s
}

// TestSnapshotDecodeAllocs is the codec's decode contract: a vocabulary
// scene costs its value set — the set and its exactly sized entries — and
// nothing else: keys and labels are interned, numbers and the timestamp
// parse in place, and the entries are buffered on the stack.
func TestSnapshotDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	data, err := windowScene().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var s Snapshot
		if err := s.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("decoding a 9-feature scene allocates %.1f/op, want at most 2", allocs)
	}
}

// TestSnapshotEncodeAllocs is the encode contract: one output buffer,
// sized up front.
func TestSnapshotEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := windowScene()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("encoding a 9-feature scene allocates %.1f/op, want at most 1", allocs)
	}
}

func BenchmarkSnapshotUnmarshal(b *testing.B) {
	data, err := windowScene().MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var s Snapshot
		if err := s.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotMarshal(b *testing.B) {
	s := windowScene()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotReference* time the encoding/json reference codec on
// the same scene, for comparison.
func BenchmarkSnapshotReferenceUnmarshal(b *testing.B) {
	data, err := windowScene().MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var s Snapshot
		if err := refUnmarshalSnapshot(&s, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotReferenceMarshal(b *testing.B) {
	s := windowScene()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refMarshalSnapshot(s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestUnmarshalReplacesOnlyOnSuccess pins what a decode does to a value
// that already holds data: success replaces all of it (an absent "at"
// becomes the zero time), failure leaves it untouched.
func TestUnmarshalReplacesOnlyOnSuccess(t *testing.T) {
	s := windowScene()
	if err := s.UnmarshalJSON([]byte(`{"values":{"smoke":1e400}}`)); err == nil {
		t.Fatal("out-of-range number accepted")
	}
	if !s.At.Equal(testTime) || s.Len() != 9 {
		t.Fatalf("failed decode changed the snapshot: %v", s)
	}
	if err := s.UnmarshalJSON([]byte(`{"values":{"motion":true}}`)); err != nil {
		t.Fatal(err)
	}
	if !s.At.IsZero() || s.Len() != 1 || !s.Bool(FeatMotion) {
		t.Fatalf("decode did not replace the snapshot: %v", s)
	}

	v := Label(WeatherRain)
	if err := v.UnmarshalJSON([]byte(`[1]`)); err == nil {
		t.Fatal("array accepted as a value")
	}
	if l, ok := v.Label(); !ok || l != WeatherRain {
		t.Fatalf("failed decode changed the value: %v", v)
	}
	if err := v.UnmarshalJSON([]byte(`null`)); err != nil || !v.IsZero() {
		t.Fatalf("null = %v, %v; want an absent value", v, err)
	}
}
