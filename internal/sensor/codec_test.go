package sensor

import (
	"testing"

	"iotsid/internal/jsonwire"
)

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

// requireTailZero fails unless the entries of s past its values are zero.
func requireTailZero(t *testing.T, s Snapshot) {
	t.Helper()
	es := s.entries()
	for i, e := range es[len(es):cap(es)] {
		if e != (entry{}) {
			t.Fatalf("entry %d past the %d values = %+v, want zero", len(es)+i, len(es), e)
		}
	}
}

// TestDecodeJSONWritesOwnStorage pins DecodeJSON's contract: it rewrites
// the snapshot's own value storage in place when the entries have room,
// so copies see the new values and a decode that has room allocates
// nothing, zeroes the entries past a narrower scene's values, and on
// error leaves the snapshot and its storage as they were.
func TestDecodeJSONWritesOwnStorage(t *testing.T) {
	wide, err := windowScene().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	narrow := []byte(`{"at":"2021-03-14T15:09:26Z","values":{"motion":false}}`)
	decode := func(s *Snapshot, data []byte) error {
		d := jsonwire.NewDecoder(data)
		return s.DecodeJSON(&d)
	}
	var s Snapshot
	if err := decode(&s, wide); err != nil || !sameValues(s, windowScene()) {
		t.Fatalf("decode = %v, %v", valuesOf(s), err)
	}
	storage, alias := &s.entries()[:1][0], s
	if err := decode(&s, narrow); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Bool(FeatMotion) || &s.entries()[:1][0] != storage {
		t.Fatalf("narrow decode = %v in new storage %v; want motion=false in the entries the wide scene left", valuesOf(s), &s.entries()[:1][0] != storage)
	}
	if alias.Len() != 1 {
		t.Fatalf("a copy taken before the decode reads %d values, want the new 1", alias.Len())
	}
	requireTailZero(t, s)
	for _, bad := range []string{`{"values":{"smoke":1e400}}`, `{"values":{"ghost":true}}`, `{"values":`} {
		if err := decode(&s, []byte(bad)); err == nil {
			t.Fatalf("%s accepted", bad)
		}
		if s.Len() != 1 || s.Bool(FeatMotion) || !s.At.Equal(alias.At) || &s.entries()[:1][0] != storage {
			t.Fatalf("failed decode of %s changed the snapshot: %v", bad, valuesOf(s))
		}
		requireTailZero(t, s)
	}
	if err := decode(&s, []byte(`null`)); err != nil || s.Len() != 0 || !s.At.IsZero() {
		t.Fatalf("null = %v at %v, %v; want no values at the zero time", valuesOf(s), s.At, err)
	}
	requireTailZero(t, s)
	if raceEnabled {
		return
	}
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		data := wide
		if n++; n%2 == 0 {
			data = narrow
		}
		if err := decode(&s, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decoding into entries with room allocates %.1f/op, want 0", allocs)
	}
}
