package dataset

import (
	"fmt"
	"math/rand"
	"time"

	"iotsid/internal/sensor"
)

// Scene generators: for every device model, LegalScene draws a sensor
// context in which the model's sensitive control instruction is part of a
// legitimate activity scene, and AttackScene draws a context-violating one
// (spoofed sensors, nobody-home commands, replayed voice, physical-
// interaction hazards). These are the positive and negative samples of the
// paper's learning problem.
//
// The generators themselves produce crisply separable classes; the residual
// error rates of Table VI come from Build's calibrated context noise — a
// per-model fraction of legal commands issued from attack-looking contexts
// (and, for the window model, attacks staged inside legal-looking contexts).

// sceneTime anchors generated snapshots; only the hour-of-day feature
// matters to the models.
var sceneTime = time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC)

type sampler struct{ r *rand.Rand }

func (s sampler) b(p float64) bool                         { return s.r.Float64() < p }
func (s sampler) f(lo, hi float64) float64                 { return lo + s.r.Float64()*(hi-lo) }
func (s sampler) pick(xs ...sensor.LabelID) sensor.LabelID { return xs[s.r.Intn(len(xs))] }
func (s sampler) hour(lo, hi float64) float64              { return s.f(lo, hi) }

// newScene makes an empty scene for the model, sized to the model's
// feature width: every scene of a model sets exactly its model's features,
// so the builders below fill the values without growing them. The
// builders take the snapshot by value and share its values.
func newScene(m Model) sensor.Snapshot {
	return sensor.NewSnapshotCap(sceneTime, len(modelSpecs[m]))
}

// LegalScene draws a positive-context snapshot for the model.
func LegalScene(m Model, rng *rand.Rand) (sensor.Snapshot, error) {
	s := sampler{r: rng}
	snap := newScene(m)
	switch m {
	case ModelWindow:
		legalWindow(s, snap)
	case ModelAircon:
		legalAircon(s, snap)
	case ModelLight:
		legalLight(s, snap)
	case ModelCurtain:
		legalCurtain(s, snap)
	case ModelTV:
		legalTV(s, snap)
	case ModelKitchen:
		legalKitchen(s, snap)
	default:
		return sensor.Snapshot{}, fmt.Errorf("dataset: unknown model %q", m)
	}
	return snap, nil
}

// LegalSceneSeeded is a convenience wrapper drawing one legal scene from a
// fresh seeded source.
func LegalSceneSeeded(m Model, seed int64) (sensor.Snapshot, error) {
	return LegalScene(m, rand.New(rand.NewSource(seed)))
}

// AttackSceneSeeded is a convenience wrapper drawing one attack scene from
// a fresh seeded source.
func AttackSceneSeeded(m Model, seed int64) (sensor.Snapshot, error) {
	return AttackScene(m, rand.New(rand.NewSource(seed)))
}

// AttackScene draws a negative-context snapshot for the model.
func AttackScene(m Model, rng *rand.Rand) (sensor.Snapshot, error) {
	s := sampler{r: rng}
	snap := newScene(m)
	switch m {
	case ModelWindow:
		attackWindow(s, snap)
	case ModelAircon:
		attackAircon(s, snap)
	case ModelLight:
		attackLight(s, snap)
	case ModelCurtain:
		attackCurtain(s, snap)
	case ModelTV:
		attackTV(s, snap)
	case ModelKitchen:
		attackKitchen(s, snap)
	default:
		return sensor.Snapshot{}, fmt.Errorf("dataset: unknown model %q", m)
	}
	return snap, nil
}

// --- window (sensitive instruction: window.open) ---

// The window scenes form a boolean evidence cascade — smoke, then gas, then
// voice, then lock — so the trained tree's feature weights reproduce the
// Fig 6 ordering: the four discrete sensors carry most of the weight, with
// air quality, temperature, weather, motion and hour as weak correlates.
// Spoofed-smoke attacks are only separable from genuine hazards by the air
// quality correlate, and imperfectly so — that residue is the window
// model's (and the paper's) non-zero false-alarm rate.
func legalWindow(s sampler, snap sensor.Snapshot) {
	// Weak correlates shared by all legal scenes.
	snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(16, 30)))
	snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherSunny, sensor.WeatherSunny, sensor.WeatherCloudy, sensor.WeatherRain)))
	snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.7)))
	snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 24)))
	if s.b(0.74) { // hazard ventilation: smoke or gas detected
		smoke := s.b(0.85)
		snap.Set(sensor.FeatSmoke, sensor.Bool(smoke))
		snap.Set(sensor.FeatGas, sensor.Bool(!smoke || s.b(0.1)))
		snap.Set(sensor.FeatAirQuality, sensor.Number(s.f(60, 220)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.15)))
		snap.Set(sensor.FeatDoorLock, sensor.Label(s.pick(sensor.LockLocked, sensor.LockLocked, sensor.LockUnlocked)))
	} else { // voice-commanded airing inside a locked home
		snap.Set(sensor.FeatSmoke, sensor.Bool(false))
		snap.Set(sensor.FeatGas, sensor.Bool(false))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
		snap.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockLocked))
		snap.Set(sensor.FeatAirQuality, sensor.Number(s.f(40, 150)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(6, 23.5)))
	}
}

func attackWindow(s sampler, snap sensor.Snapshot) {
	// Weak correlates shared by all attack scenes.
	snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(15, 30)))
	snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherSunny, sensor.WeatherCloudy, sensor.WeatherRain, sensor.WeatherSnow)))
	snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 24)))
	snap.Set(sensor.FeatAirQuality, sensor.Number(s.f(20, 160)))
	switch {
	case s.b(0.76): // burglary preparation: quiet home, no hazard, no voice
		snap.Set(sensor.FeatSmoke, sensor.Bool(false))
		snap.Set(sensor.FeatGas, sensor.Bool(false))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatDoorLock, sensor.Label(s.pick(sensor.LockUnlocked, sensor.LockLocked)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.4)))
	case s.b(0.2): // spoofed smoke: the boolean is forged, but the attacker
		// does not control the physical air-quality sensor, which keeps
		// reading clean air — the correlate inconsistency the IDS keys on.
		snap.Set(sensor.FeatSmoke, sensor.Bool(true))
		snap.Set(sensor.FeatGas, sensor.Bool(false))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatDoorLock, sensor.Label(s.pick(sensor.LockLocked, sensor.LockUnlocked)))
		snap.Set(sensor.FeatAirQuality, sensor.Number(s.f(25, 70)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.3)))
	default: // replayed voice command into an unlocked, still house
		snap.Set(sensor.FeatSmoke, sensor.Bool(false))
		snap.Set(sensor.FeatGas, sensor.Bool(false))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
		snap.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockUnlocked))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.3)))
	}
}

// --- air conditioning (sensitive instruction: aircon.on / set mode) ---

func legalAircon(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.55): // hot day, people home
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(27, 35)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(28, 40)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(9, 23.5)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(40, 85)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.35)))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(s.b(0.05)))
	case s.b(0.55): // voice command while home
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(24, 33)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(20, 38)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(7, 23.5)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(35, 80)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(s.b(0.06)))
	default: // pre-cool before the household returns
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(28, 34)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(29, 41)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(16, 18.5)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(40, 80)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(false))
	}
}

func attackAircon(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.45): // energy-waste attack: cooling an already-cold empty home
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(15, 22)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(-5, 18)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 24)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(30, 70)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(s.b(0.3)))
	case s.b(0.6): // night toggle with nobody home
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(18, 25)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(5, 24)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 6)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(30, 70)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.1)))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(s.b(0.15)))
	default: // window-open interaction (Fig 2): cool the street
		snap.Set(sensor.FeatTempIndoor, sensor.Number(s.f(20, 27)))
		snap.Set(sensor.FeatTempOutdoor, sensor.Number(s.f(10, 26)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.4)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 24)))
		snap.Set(sensor.FeatHumidity, sensor.Number(s.f(30, 80)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatWindowOpen, sensor.Bool(true))
	}
}

// --- light (sensitive instruction: light.on) ---

func legalLight(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.5): // dark + someone moving
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(0, 140)))
		snap.Set(sensor.FeatMotion, sensor.Bool(true))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		if s.b(0.7) {
			snap.Set(sensor.FeatHour, sensor.Number(s.hour(17, 24)))
		} else {
			snap.Set(sensor.FeatHour, sensor.Number(s.hour(5, 8)))
		}
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.3)))
	case s.b(0.5): // voice command while home
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(0, 400)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.8)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(6, 24)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
	default: // dark gloomy day, people home
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(20, 220)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.65)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(8, 18)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.2)))
	}
}

func attackLight(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.55): // casing the house: lights on while away at night
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(0, 120)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.1)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 5.5)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	default: // pointless daylight blast (energy waste / harassment)
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(1500, 9000)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.3)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.35)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(9, 16)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	}
}

// --- curtain (sensitive instruction: curtain.open) ---

func legalCurtain(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.5): // morning open, people home
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(150, 2500)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(6, 10.5)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherSunny, sensor.WeatherSunny, sensor.WeatherCloudy)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.25)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.85)))
	case s.b(0.55): // voice command
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(100, 5000)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(7, 21)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherSunny, sensor.WeatherCloudy, sensor.WeatherRain)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(true))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.9)))
	default: // daylight harvesting on a bright day
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(800, 7000)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(9, 17)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.8)))
		snap.Set(sensor.FeatWeather, sensor.Label(sensor.WeatherSunny))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.15)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.7)))
	}
}

func attackCurtain(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.6): // privacy attack: open the curtains at night
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(0, 60)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0, 4.5)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.5)))
		snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherCloudy, sensor.WeatherRain, sensor.WeatherSnow)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.1)))
	default: // surveillance: open while nobody home
		snap.Set(sensor.FeatIlluminance, sensor.Number(s.f(50, 3000)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(9, 17)))
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatWeather, sensor.Label(s.pick(sensor.WeatherSunny, sensor.WeatherCloudy, sensor.WeatherRain)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatMotion, sensor.Bool(false))
	}
}

// --- TV / stereo (sensitive instruction: tv.on) ---

func legalTV(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.6): // evening viewing
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(17, 23.8)))
		snap.Set(sensor.FeatNoise, sensor.Number(s.f(35, 60)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.4)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.9)))
	default: // daytime voice command
		snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(8, 17)))
		snap.Set(sensor.FeatNoise, sensor.Number(s.f(32, 55)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.8)))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.85)))
	}
}

func attackTV(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.6): // scare attack: blast audio at night
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.4)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0.5, 5.5)))
		snap.Set(sensor.FeatNoise, sensor.Number(s.f(28, 40)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
		snap.Set(sensor.FeatMotion, sensor.Bool(s.b(0.1)))
	default: // empty-home switch-on
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(8, 17)))
		snap.Set(sensor.FeatNoise, sensor.Number(s.f(28, 38)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.12)))
		snap.Set(sensor.FeatMotion, sensor.Bool(false))
	}
}

// --- kitchen (sensitive instruction: cooker.start / oven.preheat) ---

func legalKitchen(s sampler, snap sensor.Snapshot) {
	meal := s.r.Intn(3)
	var lo, hi float64
	switch meal {
	case 0:
		lo, hi = 6, 9
	case 1:
		lo, hi = 11, 13.5
	default:
		lo, hi = 17, 20.5
	}
	snap.Set(sensor.FeatOccupancy, sensor.Bool(true))
	snap.Set(sensor.FeatHour, sensor.Number(s.hour(lo, hi)))
	snap.Set(sensor.FeatSmoke, sensor.Bool(false))
	snap.Set(sensor.FeatPowerDraw, sensor.Number(s.f(80, 600)))
	snap.Set(sensor.FeatVoiceCmd, sensor.Bool(s.b(0.35)))
}

func attackKitchen(s sampler, snap sensor.Snapshot) {
	switch {
	case s.b(0.5): // fire-risk attack: heat an empty home
		snap.Set(sensor.FeatOccupancy, sensor.Bool(false))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(9, 16)))
		snap.Set(sensor.FeatSmoke, sensor.Bool(s.b(0.15)))
		snap.Set(sensor.FeatPowerDraw, sensor.Number(s.f(900, 3200)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	case s.b(0.6): // night start
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.6)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(0.5, 5)))
		snap.Set(sensor.FeatSmoke, sensor.Bool(false))
		snap.Set(sensor.FeatPowerDraw, sensor.Number(s.f(80, 500)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	default: // start while smoke already detected
		snap.Set(sensor.FeatOccupancy, sensor.Bool(s.b(0.5)))
		snap.Set(sensor.FeatHour, sensor.Number(s.hour(6, 21)))
		snap.Set(sensor.FeatSmoke, sensor.Bool(true))
		snap.Set(sensor.FeatPowerDraw, sensor.Number(s.f(700, 3000)))
		snap.Set(sensor.FeatVoiceCmd, sensor.Bool(false))
	}
}
