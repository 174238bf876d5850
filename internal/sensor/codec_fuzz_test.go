package sensor

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// snapshotWireCases are the wire-format edge cases the snapshot codec and
// the reference codec must agree on. TestSnapshotWireCases pins whether
// each one is accepted, and FuzzSnapshotJSON starts from all but the
// largest (see maxFuzzSeed).
var snapshotWireCases = []struct {
	name string
	in   string
	ok   bool
}{
	{"scene", `{"at":"2021-03-14T15:09:26Z","values":{"smoke":false,"temperature_in":22.5,"outdoor_weather":"rain"}}`, true},
	{"whitespace", " \t\r\n{ \"at\" : \"2021-03-14T15:09:26.5+01:00\" ,\n\"values\" : { \"motion\" : true , \"hour_of_day\" : -0 } } \n", true},
	{"null", `null`, true},
	{"padded null", " \n null\t", true},
	{"empty object", `{}`, true},
	{"empty values", `{"values":{}}`, true},
	{"upper-case field", `{"AT":"2021-03-14T15:09:26Z","VALUES":{"smoke":true}}`, true},
	{"long-s field", `{"valueſ":{"smoke":true}}`, true},
	{"escaped field", `{"\u0061t":"2021-03-14T15:09:26Z","v\u0061lues":{"smoke":true}}`, true},
	{"unknown fields", `{"x":[1,{"y":null},"z",-0.5e+3,true,false,[]],"values":{"smoke":true},"w":{},"":""}`, true},
	{"unknown out of range", `{"x":1e400}`, true},
	{"unknown leading zero", `{"x":01}`, false},
	{"unknown bare minus", `{"":{"":-}}`, false},
	{"unknown bad literal", `{"x":[tru]}`, false},
	{"unknown unclosed", `{"x":[1,2}`, false},
	{"unknown control char", "{\"x\":\"\x1f\"}", false},
	{"unknown non-string key", `{"x":{1:2}}`, false},
	{"unknown bad key escape", `{"x":{"\q":1}}`, false},
	{"unknown missing colon", `{"x":{"a" 1}}`, false},
	{"bad field escape", `{"\q":1}`, false},
	{"at bad literal", `{"at":tru}`, false},
	{"bad feature escape", `{"values":{"\q":1}}`, false},
	{"feature missing colon", `{"values":{"motion" 1}}`, false},
	{"backslash at end", `{"x":"\`, false},
	{"duplicate values merge", `{"values":{"smoke":true},"values":{"motion":false}}`, true},
	{"values null resets", `{"values":{"smoke":true},"values":null}`, true},
	{"values null then object", `{"values":{"smoke":true},"values":null,"values":{"motion":true}}`, true},
	{"null value", `{"values":{"smoke":null}}`, true},
	{"duplicate key", `{"values":{"smoke":true,"smoke":false}}`, true},
	{"at null keeps earlier", `{"at":"2021-03-14T15:09:26Z","at":null}`, true},
	{"at offset", `{"at":"2021-03-14T15:09:26.123456789-07:30"}`, true},
	{"escaped strings", `{"values":{"door_lock":"lo\u0063ked","outdoor_weather":"\ud83d\ude00<>&\u2028\"\\\b\f\r\t"}}`, true},
	{"escaped feature", `{"values":{"sm\u006fke":true,"hour_\u006ff_day":1}}`, true},
	{"non-ascii strings", `{"values":{"outdoor_weather":"pluie é"}}`, true},
	{"invalid utf-8", "{\"values\":{\"door_lock\":\"v\xfe\",\"outdoor_weather\":\"\xed\xa0\x80s\"}}", true},
	{"lone surrogate", `{"values":{"door_lock":"\ud800x","outdoor_weather":"\udc00","time_bucket":"\ud800\u0041"}}`, true},
	{"many features", `{"values":{"air_quality":1,"combustible_gas":true,"door_lock":"locked","door_open":false,"hour_of_day":5,"humidity":6,"illuminance":7,"instruction_gap":8,"motion":true,"noise_level":10,"occupancy":false,"occupancy_dwell":12,"outdoor_weather":"rain","power_draw":14,"smoke":false,"temperature_in":16,"temperature_out":17,"time_bucket":"night","voice_command":true,"water_leak":false,"window_open":true,"air_quality":22}}`, true},
	{"unknown feature", `{"values":{"smoke":true,"x":1}}`, false},
	{"unknown non-ascii feature", `{"values":{"température":"pluie é"}}`, false},
	{"unknown invalid utf-8 feature", "{\"values\":{\"k\xff\":\"v\xfe\"}}", false},
	{"unknown empty feature", `{"values":{"":true}}`, false},
	{"unknown upper-case feature", `{"values":{"SMOKE":true}}`, false},
	{"unknown feature dropped by null", `{"values":{"x":1,"smoke":true},"values":null,"values":{"motion":true}}`, true},
	{"unknown feature after null", `{"values":null,"values":{"x":1}}`, false},
	{"unknown feature repeated", `{"values":{"x":1},"values":{"x":2,"smoke":true}}`, false},
	{"unknown feature then bad value", `{"values":{"x":1,"smoke":{}}}`, false},
	{"unknown feature then bad time", `{"values":{"x":1},"at":"yesterday"}`, false},
	{"unknown feature then trailing bytes", `{"values":{"x":1}} 0`, false},
	{"escaped at", `{"at":"2021-03-14T15:09:26\u005a"}`, false},
	{"at number", `{"at":1}`, false},
	{"at object", `{"at":{}}`, false},
	{"at bad time", `{"at":"yesterday"}`, false},
	{"number out of range", `{"values":{"humidity":1e400}}`, false},
	{"negative out of range", `{"values":{"humidity":-1e400}}`, false},
	{"tiny number", `{"values":{"humidity":1e-400}}`, true},
	{"exponent forms", `{"values":{"air_quality":1E5,"humidity":2e-3,"illuminance":-0.0e+0,"power_draw":123456789012345678901234567890}}`, true},
	{"leading zero", `{"values":{"humidity":01}}`, false},
	{"bare minus", `{"values":{"humidity":-}}`, false},
	{"minus letter", `{"values":{"humidity":-a}}`, false},
	{"dangling dot", `{"values":{"humidity":1.}}`, false},
	{"dangling exponent", `{"values":{"humidity":1e+}}`, false},
	{"leading dot", `{"values":{"humidity":.5}}`, false},
	{"leading plus", `{"values":{"humidity":+1}}`, false},
	{"object value", `{"values":{"humidity":{}}}`, false},
	{"array value", `{"values":{"humidity":[1]}}`, false},
	{"values array", `{"values":[]}`, false},
	{"values string", `{"values":"x"}`, false},
	{"values number", `{"values":1}`, false},
	{"values true", `{"values":true}`, false},
	{"top array", `[]`, false},
	{"top number", `1`, false},
	{"top string", `"x"`, false},
	{"top true", `true`, false},
	{"empty input", ``, false},
	{"only space", `  `, false},
	{"trailing bytes", `{} {}`, false},
	{"trailing null bytes", `null x`, false},
	{"trailing comma", `{"values":{"humidity":1,}}`, false},
	{"trailing field comma", `{"values":{},}`, false},
	{"missing colon", `{"values" {}}`, false},
	{"missing comma", `{"values":{"humidity":1 "motion":2}}`, false},
	{"non-string key", `{1:2}`, false},
	{"non-string value key", `{"values":{1:2}}`, false},
	{"control char", "{\"values\":{\"door_lock\":\"a\x01\"}}", false},
	{"bad escape", `{"values":{"door_lock":"\q"}}`, false},
	{"short unicode escape", `{"values":{"door_lock":"\u12"}}`, false},
	{"bad unicode escape", `{"values":{"door_lock":"\u12g4"}}`, false},
	{"unterminated string", `{"values":{"door_lock":"a`, false},
	{"unterminated object", `{"values":{"humidity":1}`, false},
	{"bad literal", `{"values":{"motion":nul}}`, false},
	{"bad null", `nulL`, false},
	{"max nesting", `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
	{"over nesting", `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false},
	{"over nesting objects", `{"x":` + strings.Repeat(`{"":`, 10000) + `0` + strings.Repeat("}", 10000) + `}`, false},
}

// valueWireCases seed FuzzValueJSON: a number, a string that is both a
// label and a raw JSON document, and a boolean.
var valueWireCases = []struct {
	n float64
	s string
	b bool
}{
	{22.5, "rain", true},
	{1e-7, `"\u00e9"`, false},
	{1e-6, " true ", true},
	{1e21, "1e400", false},
	{1e20, "-1e400", true},
	{math.Copysign(0, -1), "<>&\u2028\u2029", false},
	{math.NaN(), "\xff\xfe", true},
	{math.Inf(1), "null", false},
	{math.Inf(-1), " null ", true},
	{5e-324, "01", false},
	{math.MaxFloat64, "-", true},
	{-123456789, "[1]", false},
	{0.000001234, "{}", true},
	{-2.5e-10, "nul", false},
	{123e300, "\"a\x01\"", true},
	{0.1, "\"\\q\"", false},
	{3, "\"\\ud83d\\ude00\"", true},
	{-1e-300, "\"tab\\t\"x", false},
	{100, "", true},
	{7, "1e-400", false},
}

// sameValue reports whether a and b are the same value, comparing
// numbers bit for bit so that -0 and 0 differ.
func sameValue(a, b Value) bool {
	return a.typ == b.typ && a.b == b.b && a.s == b.s && math.Float64bits(a.n) == math.Float64bits(b.n)
}

// requireSameSnapshot fails unless got equals want: the same instant in
// the same zone, a well-formed value set of its own, and the same values
// bit for bit.
func requireSameSnapshot(t *testing.T, want, got Snapshot) {
	t.Helper()
	wantZone, wantOff := want.At.Zone()
	gotZone, gotOff := got.At.Zone()
	if !want.At.Equal(got.At) || wantZone != gotZone || wantOff != gotOff {
		t.Fatalf("At = %v, want %v", got.At, want.At)
	}
	if got.vals == nil {
		t.Fatal("decoded snapshot has no value set")
	}
	requireSorted(t, got)
	gotVals, wantVals := valuesOf(got), valuesOf(want)
	if len(gotVals) != len(wantVals) {
		t.Fatalf("values = %v, want %v", gotVals, wantVals)
	}
	for f, w := range wantVals {
		if g, ok := gotVals[f]; !ok || !sameValue(g, w) {
			t.Fatalf("feature %q = %#v (present %v), want %#v", f, g, ok, w)
		}
	}
}

// checkSnapshotAgainstReference decodes data with both codecs, requires
// the same verdict and equal snapshots, and requires byte-identical
// re-encodings. It reports whether the input was accepted.
func checkSnapshotAgainstReference(t *testing.T, data []byte) bool {
	t.Helper()
	var want, got Snapshot
	wantErr := refUnmarshalSnapshot(&want, data)
	gotErr := got.UnmarshalJSON(data)
	if (wantErr == nil) != (gotErr == nil) || isUnknownFeature(wantErr) != isUnknownFeature(gotErr) {
		t.Fatalf("decode %q: reference err %v, codec err %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return false
	}
	requireSameSnapshot(t, want, got)
	wantOut, wantErr := refMarshalSnapshot(want)
	gotOut, gotErr := got.MarshalJSON()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encode %q: reference err %v, codec err %v", data, wantErr, gotErr)
	}
	if !bytes.Equal(wantOut, gotOut) {
		t.Fatalf("encode %q:\n codec     %s\n reference %s", data, gotOut, wantOut)
	}
	return true
}

// isUnknownFeature reports whether err is an *UnknownFeatureError.
func isUnknownFeature(err error) bool {
	var uf *UnknownFeatureError
	return errors.As(err, &uf)
}

// checkValueAgainstReference encodes v with both codecs and requires the
// same bytes (or both to fail), then decodes the encoding both ways.
func checkValueAgainstReference(t *testing.T, v Value) {
	t.Helper()
	wantOut, wantErr := refValue(v).MarshalJSON()
	gotOut, gotErr := v.MarshalJSON()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("encode %#v: reference err %v, codec err %v", v, wantErr, gotErr)
	}
	if !bytes.Equal(wantOut, gotOut) {
		t.Fatalf("encode %#v: codec %s, reference %s", v, gotOut, wantOut)
	}
	if wantErr == nil {
		checkValueDecodeAgainstReference(t, gotOut)
	}
}

// checkValueDecodeAgainstReference decodes data with both codecs and
// requires the same verdict and the same value. It reports whether the
// input was accepted.
func checkValueDecodeAgainstReference(t *testing.T, data []byte) bool {
	t.Helper()
	var want refValue
	var got Value
	wantErr := want.UnmarshalJSON(data)
	gotErr := got.UnmarshalJSON(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("decode %q: reference err %v, codec err %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !sameValue(Value(want), got) {
		t.Fatalf("decode %q = %#v, reference %#v", data, got, Value(want))
	}
	return wantErr == nil
}

// maxFuzzSeed keeps the nesting-bound cases, tens of kilobytes each, out
// of FuzzSnapshotJSON's corpus: every mutant of them is as large, and
// minimizing one stalls the fuzzer for up to a minute. TestSnapshotWireCases
// holds them to the reference instead.
const maxFuzzSeed = 1 << 10

// FuzzSnapshotJSON decodes arbitrary bytes with the snapshot codec and the
// reference codec: both must accept or reject alike, decode to equal
// snapshots, and re-encode every accepted input to identical bytes.
func FuzzSnapshotJSON(f *testing.F) {
	for _, c := range snapshotWireCases {
		if len(c.in) <= maxFuzzSeed {
			f.Add([]byte(c.in))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotAgainstReference(t, data)
	})
}

// FuzzValueJSON encodes arbitrary numbers, labels and booleans with the
// value codec and the reference codec, requiring identical bytes (NaN and
// the infinities must fail in both), and decodes the string argument as a
// raw JSON document with both, requiring the same verdict and value.
func FuzzValueJSON(f *testing.F) {
	for _, c := range valueWireCases {
		f.Add(c.n, c.s, c.b)
	}
	f.Fuzz(func(t *testing.T, n float64, s string, b bool) {
		for _, v := range []Value{Number(n), Label(s), Bool(b), {}} {
			checkValueAgainstReference(t, v)
		}
		checkValueDecodeAgainstReference(t, []byte(s))
	})
}

func TestSnapshotWireCases(t *testing.T) {
	for _, c := range snapshotWireCases {
		t.Run(c.name, func(t *testing.T) {
			if got := checkSnapshotAgainstReference(t, []byte(c.in)); got != c.ok {
				t.Fatalf("accepted = %v, want %v", got, c.ok)
			}
		})
	}
}

func TestSnapshotWireEncodeCases(t *testing.T) {
	at := time.Date(2021, 3, 14, 15, 9, 26, 500, time.FixedZone("", -(7*3600+30*60)))
	cases := []Snapshot{
		{},
		{At: at},
		{At: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)},
		{At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{At: time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600))},
		snapshotOf(at, map[Feature]Value{FeatHour: Number(math.NaN())}),
		snapshotOf(at, map[Feature]Value{FeatNoise: Number(math.Inf(-1)), FeatAirQuality: Bool(true)}),
		snapshotOf(testTime, map[Feature]Value{
			FeatHumidity: Number(1e-7), FeatAirQuality: Number(1e21), FeatIlluminance: Number(-0.000001), FeatPowerDraw: Number(math.Copysign(0, -1)),
			FeatDoorLock: Label("a&b"), FeatWeather: Label("\u2028"), FeatTimeBucket: Label("\"\\\n"), FeatNoise: Label("ü"),
			FeatInstrGap: Label("k\xff<tag>"), FeatMotion: {}, FeatSmoke: Bool(true), FeatGas: Bool(false),
		}),
	}
	for i, s := range cases {
		wantOut, wantErr := refMarshalSnapshot(s)
		gotOut, gotErr := s.MarshalJSON()
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: reference err %v, codec err %v", i, wantErr, gotErr)
		}
		if !bytes.Equal(wantOut, gotOut) {
			t.Fatalf("case %d:\n codec     %s\n reference %s", i, gotOut, wantOut)
		}
	}
}

func TestValueWireCases(t *testing.T) {
	for _, c := range valueWireCases {
		for _, v := range []Value{Number(c.n), Label(c.s), Bool(c.b), {}} {
			checkValueAgainstReference(t, v)
		}
		checkValueDecodeAgainstReference(t, []byte(c.s))
	}
}
