// Package sensor models IoT sensors, their readings, and the uniform
// JSON-normalised snapshot format the paper's sensor data collector emits
// (§IV-B-3: "we process all data into unified data in JSON format").
//
// The package defines a shared feature vocabulary. Every other layer — the
// home simulator, the vendor protocol substrates, the dataset generator and
// the machine-learning schema — speaks in these features, which is what makes
// the "sensor context" of the paper a single coherent object.
package sensor

import "fmt"

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
type Feature string

// The feature vocabulary. The window model of Fig 6 uses the first nine;
// the remaining features appear in the context of other device models.
const (
	FeatSmoke       Feature = "smoke"           // bool: smoke alarm tripped
	FeatGas         Feature = "combustible_gas" // bool: gas detector tripped
	FeatVoiceCmd    Feature = "voice_command"   // bool: user voice command present
	FeatDoorLock    Feature = "door_lock"       // label: locked | unlocked
	FeatTempIndoor  Feature = "temperature_in"  // °C, continuous
	FeatAirQuality  Feature = "air_quality"     // AQI, continuous
	FeatWeather     Feature = "outdoor_weather" // label: sunny | cloudy | rain | snow
	FeatMotion      Feature = "motion"          // bool: motion detected
	FeatHour        Feature = "hour_of_day"     // [0,24) fractional hour
	FeatTempOutdoor Feature = "temperature_out" // °C, continuous
	FeatHumidity    Feature = "humidity"        // %RH, continuous
	FeatIlluminance Feature = "illuminance"     // lux, continuous
	FeatWaterLeak   Feature = "water_leak"      // bool: flood sensor tripped
	FeatOccupancy   Feature = "occupancy"       // bool: somebody home
	FeatWindowOpen  Feature = "window_open"     // bool: window contact open
	FeatDoorOpen    Feature = "door_open"       // bool: door contact open
	FeatNoise       Feature = "noise_level"     // dB, continuous
	FeatPowerDraw   Feature = "power_draw"      // W, continuous

	// Temporal features (ROADMAP item 1): derived dimensions the sequence
	// judge discretizes. Gateways that track their own timelines may push
	// them explicitly; otherwise the per-home tracker derives them from
	// event times and the occupancy stream.
	FeatTimeBucket     Feature = "time_bucket"     // label: night | morning | afternoon | evening
	FeatOccupancyDwell Feature = "occupancy_dwell" // s since the occupancy state last changed
	FeatInstrGap       Feature = "instruction_gap" // s since the previous instruction
)

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
	Type    FeatureType
	Source  Kind
	Unit    string
	Labels  []string // label domain, only for TypeLabel
}

// Weather label domain.
const (
	WeatherSunny  = "sunny"
	WeatherCloudy = "cloudy"
	WeatherRain   = "rain"
	WeatherSnow   = "snow"
)

// Door-lock label domain.
const (
	LockLocked   = "locked"
	LockUnlocked = "unlocked"
)

// Time-of-day bucket label domain. The four buckets quantize the
// fractional hour-of-day into the coarse daily phases the sequence judge
// keys on: night [22,6), morning [6,12), afternoon [12,18), evening
// [18,22).
const (
	BucketNight     = "night"
	BucketMorning   = "morning"
	BucketAfternoon = "afternoon"
	BucketEvening   = "evening"
)

// TimeBucketCount is the number of time-of-day buckets.
const TimeBucketCount = 4

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

var vocabulary = []Descriptor{
	{Feature: FeatSmoke, Type: TypeBool, Source: KindSmoke},
	{Feature: FeatGas, Type: TypeBool, Source: KindCombustibleGas},
	{Feature: FeatVoiceCmd, Type: TypeBool, Source: KindVoiceAssistant},
	{Feature: FeatDoorLock, Type: TypeLabel, Source: KindSmartLock, Labels: []string{LockLocked, LockUnlocked}},
	{Feature: FeatTempIndoor, Type: TypeNumber, Source: KindTemperature, Unit: "°C"},
	{Feature: FeatAirQuality, Type: TypeNumber, Source: KindAirQuality, Unit: "AQI"},
	{Feature: FeatWeather, Type: TypeLabel, Source: KindWeatherStation, Labels: []string{WeatherSunny, WeatherCloudy, WeatherRain, WeatherSnow}},
	{Feature: FeatMotion, Type: TypeBool, Source: KindMotion},
	{Feature: FeatHour, Type: TypeNumber, Source: KindClock, Unit: "h"},
	{Feature: FeatTempOutdoor, Type: TypeNumber, Source: KindWeatherStation, Unit: "°C"},
	{Feature: FeatHumidity, Type: TypeNumber, Source: KindHumidity, Unit: "%RH"},
	{Feature: FeatIlluminance, Type: TypeNumber, Source: KindIlluminance, Unit: "lux"},
	{Feature: FeatWaterLeak, Type: TypeBool, Source: KindWaterLeak},
	{Feature: FeatOccupancy, Type: TypeBool, Source: KindOccupancy},
	{Feature: FeatWindowOpen, Type: TypeBool, Source: KindDoorWindowContact},
	{Feature: FeatDoorOpen, Type: TypeBool, Source: KindDoorWindowContact},
	{Feature: FeatNoise, Type: TypeNumber, Source: KindNoise, Unit: "dB"},
	{Feature: FeatPowerDraw, Type: TypeNumber, Source: KindPowerMeter, Unit: "W"},
	{Feature: FeatTimeBucket, Type: TypeLabel, Source: KindClock, Labels: []string{BucketNight, BucketMorning, BucketAfternoon, BucketEvening}},
	{Feature: FeatOccupancyDwell, Type: TypeNumber, Source: KindOccupancy, Unit: "s"},
	{Feature: FeatInstrGap, Type: TypeNumber, Source: KindClock, Unit: "s"},
}

var vocabularyIndex = buildVocabularyIndex()

func buildVocabularyIndex() map[Feature]Descriptor {
	m := make(map[Feature]Descriptor, len(vocabulary))
	for _, d := range vocabulary {
		m[d.Feature] = d
	}
	return m
}

// Describe looks up the descriptor of a feature.
func Describe(f Feature) (Descriptor, bool) {
	d, ok := vocabularyIndex[f]
	return d, ok
}

// MustDescribe looks up a feature descriptor that is known to exist. It is a
// programming error to pass an unknown feature.
func MustDescribe(f Feature) Descriptor {
	d, ok := vocabularyIndex[f]
	if !ok {
		panic(fmt.Sprintf("sensor: unknown feature %q", f))
	}
	return d
}
