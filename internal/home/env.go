// Package home simulates the smart home the paper instruments: a physical
// environment (weather, temperatures, air quality, occupancy, hazards), the
// sensor fleet observing it, and the actuating devices of the nine Table I
// categories. The simulator is the stand-in for the paper's physical Xiaomi
// and SmartThings deployments; both vendor substrates serve their state from
// it.
package home

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"iotsid/internal/sensor"
)

// HVACMode is the air-conditioning state machine.
type HVACMode int

// HVAC modes.
const (
	HVACOff HVACMode = iota + 1
	HVACCool
	HVACHeat
)

// Environment is the simulated physical world. All access is mutex-guarded:
// the automation engine, the vendor protocol servers and the physics stepper
// touch it concurrently.
type Environment struct {
	mu  sync.Mutex
	rng *rand.Rand
	now time.Time

	// Weather / outdoor.
	weather     sensor.LabelID
	tempOut     float64
	humidity    float64
	illumOut    float64 // daylight lux before windows/curtains
	seasonalMid float64 // seasonal mean outdoor temperature

	// Indoor state.
	tempIn    float64
	aqi       float64
	noise     float64
	powerBase float64

	// Hazards.
	smoke, gas, waterLeak bool
	smokeTTL, gasTTL      int // physics steps until hazard clears
	waterTTL              int

	// People.
	occupied bool
	motion   bool
	voiceCmd bool

	// Device-coupled state (mutated by devices).
	windowOpen  bool
	doorOpen    bool
	doorLocked  bool
	curtainPos  float64 // 0 closed .. 1 open
	lightsOn    int
	tvOn        bool
	cooking     bool
	hvac        HVACMode
	hvacTarget  float64
	vacuumOn    bool
	cameraOn    bool
	alarmArmed  bool
	sirenActive bool
	devicePower float64
}

// EnvConfig seeds the environment.
type EnvConfig struct {
	Start       time.Time
	Seed        int64
	SeasonalMid float64 // mean outdoor temperature, default 15 °C
}

// NewEnvironment builds a home world at the configured start instant.
func NewEnvironment(cfg EnvConfig) *Environment {
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2021, 4, 1, 8, 0, 0, 0, time.UTC)
	}
	if cfg.SeasonalMid == 0 {
		cfg.SeasonalMid = 15
	}
	e := &Environment{
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		now:         cfg.Start,
		weather:     sensor.WeatherSunny,
		seasonalMid: cfg.SeasonalMid,
		tempIn:      21,
		humidity:    50,
		aqi:         40,
		noise:       32,
		powerBase:   80,
		doorLocked:  true,
		curtainPos:  0.5,
		hvac:        HVACOff,
		hvacTarget:  22,
		occupied:    true,
	}
	e.refreshOutdoor()
	return e
}

// Now returns the simulated clock.
func (e *Environment) Now() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Step advances simulated time by d and integrates the physics. Call with
// steps of roughly one simulated minute; larger steps coarsen the dynamics
// but stay stable.
func (e *Environment) Step(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.now = e.now.Add(d)
	dtMin := d.Minutes()

	e.stepWeather(dtMin)
	e.refreshOutdoor()
	e.stepIndoorTemp(dtMin)
	e.stepAir(dtMin)
	e.stepPeople()
	e.stepHazards()
	e.stepAmbience()
}

func (e *Environment) stepWeather(dtMin float64) {
	// Markov weather: chance of a transition scales with elapsed time.
	p := 1 - math.Pow(0.998, dtMin)
	if e.rng.Float64() >= p {
		return
	}
	// Random walk over the severity ladder, the weather domain in order;
	// snow only plausible when cold.
	ladder := sensor.MustDescribe(sensor.FeatWeather).Labels
	idx := int(e.weather - ladder[0])
	if e.rng.Intn(2) == 0 && idx > 0 {
		idx--
	} else if idx < len(ladder)-1 {
		idx++
	}
	if ladder[idx] == sensor.WeatherSnow && e.seasonalMid > 8 {
		idx-- // too warm for snow
	}
	e.weather = ladder[idx]
}

func (e *Environment) refreshOutdoor() {
	h := hourOf(e.now)
	diurnal := 6 * math.Sin((h-9)/24*2*math.Pi)
	adj := [...]float64{
		sensor.WeatherSunny:  1.5,
		sensor.WeatherCloudy: 0,
		sensor.WeatherRain:   -3,
		sensor.WeatherSnow:   -9,
	}[e.weather]
	e.tempOut = e.seasonalMid + diurnal + adj + e.rng.Float64()*0.6 - 0.3

	daylight := math.Max(0, math.Sin(math.Pi*(h-6)/14))
	factor := [...]float64{
		sensor.WeatherSunny:  1.0,
		sensor.WeatherCloudy: 0.45,
		sensor.WeatherRain:   0.25,
		sensor.WeatherSnow:   0.35,
	}[e.weather]
	e.illumOut = daylight * 10000 * factor

	targetRH := [...]float64{
		sensor.WeatherSunny:  45,
		sensor.WeatherCloudy: 60,
		sensor.WeatherRain:   85,
		sensor.WeatherSnow:   75,
	}[e.weather]
	e.humidity += (targetRH - e.humidity) * 0.1
}

func (e *Environment) stepIndoorTemp(dtMin float64) {
	// Leak toward outdoor; open windows triple the coupling.
	leak := 0.004
	if e.windowOpen || e.doorOpen {
		leak = 0.02
	}
	e.tempIn += (e.tempOut - e.tempIn) * leak * dtMin

	// HVAC pulls toward its target.
	switch e.hvac {
	case HVACCool:
		if e.tempIn > e.hvacTarget {
			e.tempIn -= math.Min(0.08*dtMin, e.tempIn-e.hvacTarget)
		}
	case HVACHeat:
		if e.tempIn < e.hvacTarget {
			e.tempIn += math.Min(0.08*dtMin, e.hvacTarget-e.tempIn)
		}
	}
	if e.cooking {
		e.tempIn += 0.01 * dtMin
	}
}

func (e *Environment) stepAir(dtMin float64) {
	// AQI random walk, pushed up by cooking, flushed by open windows.
	e.aqi += (e.rng.Float64() - 0.5) * 2 * dtMin * 0.3
	if e.cooking {
		e.aqi += 0.8 * dtMin
	}
	if e.windowOpen {
		e.aqi -= 0.6 * dtMin
	}
	e.aqi = clamp(e.aqi, 15, 300)
}

func (e *Environment) stepPeople() {
	h := hourOf(e.now)
	weekday := e.now.Weekday() >= time.Monday && e.now.Weekday() <= time.Friday
	workHours := weekday && h >= 9 && h < 18
	base := !workHours
	// 10 % of steps flip the schedule (errands, days off, visitors).
	if e.rng.Float64() < 0.10 {
		base = !base
	}
	e.occupied = base
	awake := h >= 7 && h < 23
	e.motion = e.occupied && awake && e.rng.Float64() < 0.7
	// A voice command is a transient: only plausible while somebody is home
	// and awake.
	e.voiceCmd = e.occupied && awake && e.rng.Float64() < 0.08
}

func (e *Environment) stepHazards() {
	pSmoke := 0.0004
	if e.cooking {
		pSmoke = 0.02
	}
	if !e.smoke && e.rng.Float64() < pSmoke {
		e.smoke = true
		e.smokeTTL = 4 + e.rng.Intn(8)
	}
	if e.smoke {
		if e.smokeTTL--; e.smokeTTL <= 0 {
			e.smoke = false
		}
	}
	if !e.gas && e.rng.Float64() < 0.0002 {
		e.gas = true
		e.gasTTL = 3 + e.rng.Intn(6)
	}
	if e.gas {
		if e.gasTTL--; e.gasTTL <= 0 {
			e.gas = false
		}
	}
	if !e.waterLeak && e.rng.Float64() < 0.0002 {
		e.waterLeak = true
		e.waterTTL = 10 + e.rng.Intn(20)
	}
	if e.waterLeak {
		if e.waterTTL--; e.waterTTL <= 0 {
			e.waterLeak = false
		}
	}
}

func (e *Environment) stepAmbience() {
	e.noise = 30 + e.rng.Float64()*3
	if e.occupied {
		e.noise += 8
	}
	if e.tvOn {
		e.noise += 14
	}
	if e.vacuumOn {
		e.noise += 20
	}
	if e.sirenActive {
		e.noise += 45
	}
}

func hourOf(t time.Time) float64 {
	return float64(t.Hour()) + float64(t.Minute())/60
}

func clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}

// Snapshot reads the full sensor context at the current instant.
func (e *Environment) Snapshot() sensor.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked()
}

func (e *Environment) snapshotLocked() sensor.Snapshot {
	s := sensor.NewSnapshotCap(e.now, 18) // the 18 features set below
	s.Set(sensor.FeatSmoke, sensor.Bool(e.smoke))
	s.Set(sensor.FeatGas, sensor.Bool(e.gas))
	s.Set(sensor.FeatVoiceCmd, sensor.Bool(e.voiceCmd))
	lock := sensor.LockUnlocked
	if e.doorLocked {
		lock = sensor.LockLocked
	}
	s.Set(sensor.FeatDoorLock, sensor.Label(lock))
	s.Set(sensor.FeatTempIndoor, sensor.Number(round1(e.tempIn)))
	s.Set(sensor.FeatAirQuality, sensor.Number(round1(e.aqi)))
	s.Set(sensor.FeatWeather, sensor.Label(e.weather))
	s.Set(sensor.FeatMotion, sensor.Bool(e.motion))
	s.Set(sensor.FeatHour, sensor.Number(round1(hourOf(e.now))))
	s.Set(sensor.FeatTempOutdoor, sensor.Number(round1(e.tempOut)))
	s.Set(sensor.FeatHumidity, sensor.Number(round1(e.humidity)))
	illumIn := e.illumOut*(0.02+0.28*e.curtainPos) + float64(e.lightsOn)*300
	s.Set(sensor.FeatIlluminance, sensor.Number(round1(illumIn)))
	s.Set(sensor.FeatWaterLeak, sensor.Bool(e.waterLeak))
	s.Set(sensor.FeatOccupancy, sensor.Bool(e.occupied))
	s.Set(sensor.FeatWindowOpen, sensor.Bool(e.windowOpen))
	s.Set(sensor.FeatDoorOpen, sensor.Bool(e.doorOpen))
	s.Set(sensor.FeatNoise, sensor.Number(round1(e.noise)))
	s.Set(sensor.FeatPowerDraw, sensor.Number(round1(e.powerBase+e.devicePower)))
	return s
}

func round1(x float64) float64 { return math.Round(x*10) / 10 }

// Apply overrides environment state from a snapshot — used to stage a
// specific scene (and by attack injectors to spoof sensor values).
func (e *Environment) Apply(s sensor.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if b, ok := s.Get(sensor.FeatSmoke); ok {
		e.smoke, _ = b.Bool()
		if e.smoke {
			e.smokeTTL = 5
		}
	}
	if b, ok := s.Get(sensor.FeatGas); ok {
		e.gas, _ = b.Bool()
		if e.gas {
			e.gasTTL = 5
		}
	}
	if b, ok := s.Get(sensor.FeatVoiceCmd); ok {
		e.voiceCmd, _ = b.Bool()
	}
	if v, ok := s.Get(sensor.FeatDoorLock); ok {
		l, _ := v.Label()
		e.doorLocked = l == sensor.LockLocked
	}
	if n, ok := s.Number(sensor.FeatTempIndoor); ok {
		e.tempIn = n
	}
	if n, ok := s.Number(sensor.FeatTempOutdoor); ok {
		e.tempOut = n
	}
	if n, ok := s.Number(sensor.FeatAirQuality); ok {
		e.aqi = n
	}
	if v, ok := s.Get(sensor.FeatWeather); ok && sensor.Admits(sensor.FeatWeather, v) {
		e.weather, _ = v.Label()
	}
	if b, ok := s.Get(sensor.FeatMotion); ok {
		e.motion, _ = b.Bool()
	}
	if b, ok := s.Get(sensor.FeatOccupancy); ok {
		e.occupied, _ = b.Bool()
	}
	if b, ok := s.Get(sensor.FeatWaterLeak); ok {
		e.waterLeak, _ = b.Bool()
		if e.waterLeak {
			e.waterTTL = 10
		}
	}
	if b, ok := s.Get(sensor.FeatWindowOpen); ok {
		e.windowOpen, _ = b.Bool()
	}
	if b, ok := s.Get(sensor.FeatDoorOpen); ok {
		e.doorOpen, _ = b.Bool()
	}
	if n, ok := s.Number(sensor.FeatHumidity); ok {
		e.humidity = n
	}
}
