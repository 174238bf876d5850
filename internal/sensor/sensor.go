// Package sensor models IoT sensors, their readings, and the uniform
// JSON-normalised snapshot format the paper's sensor data collector emits
// (§IV-B-3: "we process all data into unified data in JSON format").
//
// The package defines a shared feature vocabulary. Every other layer — the
// home simulator, the vendor protocol substrates, the dataset generator and
// the machine-learning schema — speaks in these features, which is what makes
// the "sensor context" of the paper a single coherent object.
package sensor

import (
	"fmt"
	"strconv"
)

// Kind identifies a physical sensor type deployed in the smart home.
type Kind int

// Sensor kinds covered by the paper's device inventory (Table I and Fig 6).
const (
	KindSmoke Kind = iota + 1
	KindCombustibleGas
	KindTemperature
	KindHumidity
	KindAirQuality
	KindMotion
	KindDoorWindowContact
	KindSmartLock
	KindWaterLeak
	KindIlluminance
	KindWeatherStation
	KindVoiceAssistant
	KindClock
	KindOccupancy
	KindPowerMeter
	KindNoise
)

var kindNames = map[Kind]string{
	KindSmoke:             "smoke",
	KindCombustibleGas:    "combustible_gas",
	KindTemperature:       "temperature",
	KindHumidity:          "humidity",
	KindAirQuality:        "air_quality",
	KindMotion:            "motion",
	KindDoorWindowContact: "door_window_contact",
	KindSmartLock:         "smart_lock",
	KindWaterLeak:         "water_leak",
	KindIlluminance:       "illuminance",
	KindWeatherStation:    "weather_station",
	KindVoiceAssistant:    "voice_assistant",
	KindClock:             "clock",
	KindOccupancy:         "occupancy",
	KindPowerMeter:        "power_meter",
	KindNoise:             "noise",
}

// String returns the canonical lower-snake name of the sensor kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Feature names one dimension of the sensor context. Features are the
// columns of the machine-learning problem and the keys of a Snapshot.
//
// The vocabulary is closed: a Feature is a one-byte ordinal into it, and
// the ordinals run in the order of the features' names, so ordinal order
// is sorted-name order and a sorted snapshot encodes its features sorted
// by name. Names exist only at the edges: String, MarshalText and
// UnmarshalText, and ParseFeature for parsers and the wire. The zero
// Feature names no feature.
type Feature uint8

// The feature vocabulary, in name order. The window model of Fig 6 uses
// nine of them: smoke, combustible_gas, voice_command, door_lock,
// temperature_in, air_quality, outdoor_weather, motion and hour_of_day;
// the rest appear in the context of other device models. time_bucket,
// occupancy_dwell and instruction_gap are the temporal features: derived
// dimensions the sequence judge discretizes. Gateways that track their
// own timelines may push them explicitly; otherwise the per-home tracker
// derives them from event times and the occupancy stream.
const (
	FeatAirQuality     Feature = iota + 1 // "air_quality": AQI, continuous
	FeatGas                               // "combustible_gas": bool, gas detector tripped
	FeatDoorLock                          // "door_lock": label, locked | unlocked
	FeatDoorOpen                          // "door_open": bool, door contact open
	FeatHour                              // "hour_of_day": [0,24) fractional hour
	FeatHumidity                          // "humidity": %RH, continuous
	FeatIlluminance                       // "illuminance": lux, continuous
	FeatInstrGap                          // "instruction_gap": s since the previous instruction
	FeatMotion                            // "motion": bool, motion detected
	FeatNoise                             // "noise_level": dB, continuous
	FeatOccupancy                         // "occupancy": bool, somebody home
	FeatOccupancyDwell                    // "occupancy_dwell": s since the occupancy state last changed
	FeatWeather                           // "outdoor_weather": label, sunny | cloudy | rain | snow
	FeatPowerDraw                         // "power_draw": W, continuous
	FeatSmoke                             // "smoke": bool, smoke alarm tripped
	FeatTempIndoor                        // "temperature_in": °C, continuous
	FeatTempOutdoor                       // "temperature_out": °C, continuous
	FeatTimeBucket                        // "time_bucket": label, night | morning | afternoon | evening
	FeatVoiceCmd                          // "voice_command": bool, user voice command present
	FeatWaterLeak                         // "water_leak": bool, flood sensor tripped
	FeatWindowOpen                        // "window_open": bool, window contact open

	// FeatureLimit is one past the largest ordinal: an array indexed by
	// Feature has FeatureLimit elements.
	FeatureLimit
)

// NumFeatures is the size of the vocabulary.
const NumFeatures = int(FeatureLimit) - 1

// Valid reports whether f names a feature of the vocabulary.
func (f Feature) Valid() bool { return f > 0 && f < FeatureLimit }

// String returns the feature's wire name.
func (f Feature) String() string {
	if f.Valid() {
		return vocabulary[f-1].Name
	}
	return "feature(" + strconv.Itoa(int(f)) + ")"
}

// MarshalText encodes the feature as its wire name; a Feature outside
// the vocabulary has none and fails.
func (f Feature) MarshalText() ([]byte, error) {
	if !f.Valid() {
		return nil, fmt.Errorf("sensor: %v is outside the vocabulary", f)
	}
	return []byte(vocabulary[f-1].Name), nil
}

// UnmarshalText decodes a wire name; a name outside the vocabulary is a
// *VocabularyError.
func (f *Feature) UnmarshalText(text []byte) error {
	g, ok := parseFeature(text)
	if !ok {
		return &VocabularyError{Name: string(text)}
	}
	*f = g
	return nil
}

// ParseFeature looks up a feature by its wire name.
func ParseFeature(name string) (Feature, bool) {
	f, ok := featureByName[name]
	return f, ok
}

// parseFeature looks up a feature by its wire name without copying it.
func parseFeature(name []byte) (Feature, bool) {
	f, ok := featureByName[string(name)]
	return f, ok
}

// VocabularyError reports a feature and value outside the vocabulary: a
// feature name it does not hold, or a value its feature does not admit.
type VocabularyError struct {
	Name string      // the feature's wire name
	Type FeatureType // the refused value's type, when Name is in the vocabulary
}

func (e *VocabularyError) Error() string {
	if _, ok := ParseFeature(e.Name); !ok {
		return fmt.Sprintf("sensor: unknown feature %q", e.Name)
	}
	return fmt.Sprintf("sensor: %s value of feature %q is outside the vocabulary", e.Type, e.Name)
}

// FeatureType describes how a feature's values behave, mirroring the paper's
// split between "logic-oriented discrete values and data-oriented continuous
// values".
type FeatureType uint8

// Feature types.
const (
	TypeBool FeatureType = iota + 1
	TypeNumber
	TypeLabel
)

// String names the feature type.
func (t FeatureType) String() string {
	switch t {
	case TypeBool:
		return "bool"
	case TypeNumber:
		return "number"
	case TypeLabel:
		return "label"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Descriptor carries feature metadata: its value type, the sensor kind that
// produces it, its unit, and — for label features — the closed label domain.
type Descriptor struct {
	Feature Feature
	Name    string // the wire name
	Type    FeatureType
	Source  Kind
	Unit    string
	Labels  []LabelID // label domain, only for TypeLabel
}

// LabelID is a label of the vocabulary: a one-byte ordinal into one table
// of labels, laid out feature by feature, so a label feature's domain is a
// run of consecutive ordinals. Names exist only at the edges: String, the
// codec, and ParseLabel for parsers and bridges. The zero LabelID names no
// label, and no feature's domain holds it.
type LabelID uint8

// The labels, feature by feature. The four time buckets quantize the
// fractional hour-of-day into the coarse daily phases the sequence judge
// keys on: night [22,6), morning [6,12), afternoon [12,18), evening
// [18,22).
const (
	LockLocked      LabelID = iota + 1 // door_lock
	LockUnlocked                       // door_lock
	WeatherSunny                       // outdoor_weather
	WeatherCloudy                      // outdoor_weather
	WeatherRain                        // outdoor_weather
	WeatherSnow                        // outdoor_weather
	BucketNight                        // time_bucket
	BucketMorning                      // time_bucket
	BucketAfternoon                    // time_bucket
	BucketEvening                      // time_bucket
	labelLimit
)

// labels is the one table of labels: each label's wire name and the
// feature whose domain holds it. Every label domain is written here and
// nowhere else.
var labels = [labelLimit]struct {
	feat Feature
	name string
}{
	LockLocked:      {FeatDoorLock, "locked"},
	LockUnlocked:    {FeatDoorLock, "unlocked"},
	WeatherSunny:    {FeatWeather, "sunny"},
	WeatherCloudy:   {FeatWeather, "cloudy"},
	WeatherRain:     {FeatWeather, "rain"},
	WeatherSnow:     {FeatWeather, "snow"},
	BucketNight:     {FeatTimeBucket, "night"},
	BucketMorning:   {FeatTimeBucket, "morning"},
	BucketAfternoon: {FeatTimeBucket, "afternoon"},
	BucketEvening:   {FeatTimeBucket, "evening"},
}

// String returns the label's wire name.
func (l LabelID) String() string {
	if l > 0 && l < labelLimit {
		return labels[l].name
	}
	return "label(" + strconv.Itoa(int(l)) + ")"
}

// ParseLabel looks up a label of f's domain by its wire name.
func ParseLabel(f Feature, name string) (LabelID, bool) {
	l := parseLabel(f, []byte(name))
	return l, l != 0
}

// parseLabel returns the label of f's domain named name, or of any
// feature's domain when f is zero, and the zero LabelID when there is
// none.
func parseLabel(f Feature, name []byte) LabelID {
	for l := LabelID(1); l < labelLimit; l++ {
		if (f == 0 || labels[l].feat == f) && labels[l].name == string(name) {
			return l
		}
	}
	return 0
}

// Admits reports whether v may be f's value: f is in the vocabulary, v has
// f's type, and a label is one of f's domain. It is the vocabulary's one
// rule for a value: the codec refuses every value but null that it does
// not admit, and so does the automation parser.
func Admits(f Feature, v Value) bool {
	return f.Valid() && v.typ == vocabulary[f-1].Type &&
		(v.typ != TypeLabel || v.label < labelLimit && labels[v.label].feat == f)
}

// TimeBucketCount is the number of time-of-day buckets.
const TimeBucketCount = int(BucketEvening-BucketNight) + 1

// TimeBucketIndex quantizes a fractional hour-of-day into one of the four
// daily phases (0 night, 1 morning, 2 afternoon, 3 evening). Hours outside
// [0,24) wrap; NaN and infinities land in the night bucket, so hostile
// values stay inside the symbol alphabet instead of corrupting it.
//
//iot:hotpath
func TimeBucketIndex(hour float64) int {
	if hour != hour || hour > 1e9 || hour < -1e9 { // NaN or absurd: clamp
		return 0
	}
	h := hour - 24*float64(int(hour/24))
	if h < 0 {
		h += 24
	}
	switch {
	case h < 6:
		return 0
	case h < 12:
		return 1
	case h < 18:
		return 2
	case h < 22:
		return 3
	default:
		return 0
	}
}

// vocabulary describes every feature, in ordinal order; a label feature's
// domain is gathered from the table of labels.
var vocabulary = withLabels([]Descriptor{
	{Feature: FeatAirQuality, Name: "air_quality", Type: TypeNumber, Source: KindAirQuality, Unit: "AQI"},
	{Feature: FeatGas, Name: "combustible_gas", Type: TypeBool, Source: KindCombustibleGas},
	{Feature: FeatDoorLock, Name: "door_lock", Type: TypeLabel, Source: KindSmartLock},
	{Feature: FeatDoorOpen, Name: "door_open", Type: TypeBool, Source: KindDoorWindowContact},
	{Feature: FeatHour, Name: "hour_of_day", Type: TypeNumber, Source: KindClock, Unit: "h"},
	{Feature: FeatHumidity, Name: "humidity", Type: TypeNumber, Source: KindHumidity, Unit: "%RH"},
	{Feature: FeatIlluminance, Name: "illuminance", Type: TypeNumber, Source: KindIlluminance, Unit: "lux"},
	{Feature: FeatInstrGap, Name: "instruction_gap", Type: TypeNumber, Source: KindClock, Unit: "s"},
	{Feature: FeatMotion, Name: "motion", Type: TypeBool, Source: KindMotion},
	{Feature: FeatNoise, Name: "noise_level", Type: TypeNumber, Source: KindNoise, Unit: "dB"},
	{Feature: FeatOccupancy, Name: "occupancy", Type: TypeBool, Source: KindOccupancy},
	{Feature: FeatOccupancyDwell, Name: "occupancy_dwell", Type: TypeNumber, Source: KindOccupancy, Unit: "s"},
	{Feature: FeatWeather, Name: "outdoor_weather", Type: TypeLabel, Source: KindWeatherStation},
	{Feature: FeatPowerDraw, Name: "power_draw", Type: TypeNumber, Source: KindPowerMeter, Unit: "W"},
	{Feature: FeatSmoke, Name: "smoke", Type: TypeBool, Source: KindSmoke},
	{Feature: FeatTempIndoor, Name: "temperature_in", Type: TypeNumber, Source: KindTemperature, Unit: "°C"},
	{Feature: FeatTempOutdoor, Name: "temperature_out", Type: TypeNumber, Source: KindWeatherStation, Unit: "°C"},
	{Feature: FeatTimeBucket, Name: "time_bucket", Type: TypeLabel, Source: KindClock},
	{Feature: FeatVoiceCmd, Name: "voice_command", Type: TypeBool, Source: KindVoiceAssistant},
	{Feature: FeatWaterLeak, Name: "water_leak", Type: TypeBool, Source: KindWaterLeak},
	{Feature: FeatWindowOpen, Name: "window_open", Type: TypeBool, Source: KindDoorWindowContact},
})

// withLabels gives each label feature of vocab its domain.
func withLabels(vocab []Descriptor) []Descriptor {
	for l := LabelID(1); l < labelLimit; l++ {
		d := &vocab[labels[l].feat-1]
		d.Labels = append(d.Labels, l)
	}
	return vocab
}

// featureByName maps each wire name to its feature.
var featureByName = func() map[string]Feature {
	m := make(map[string]Feature, len(vocabulary))
	for _, d := range vocabulary {
		m[d.Name] = d.Feature
	}
	return m
}()

// Describe looks up the descriptor of a feature.
func Describe(f Feature) (Descriptor, bool) {
	if !f.Valid() {
		return Descriptor{}, false
	}
	return vocabulary[f-1], true
}

// MustDescribe looks up a feature descriptor that is known to exist. It is a
// programming error to pass an unknown feature.
func MustDescribe(f Feature) Descriptor {
	d, ok := Describe(f)
	if !ok {
		panic(fmt.Sprintf("sensor: unknown feature %v", f))
	}
	return d
}
