package bridge

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/sensor"
	"iotsid/internal/smartthings"
)

// stEntity describes one Home-Assistant-style entity served by the bridge:
// its entity ID, the canonical feature it exposes, and the two codec halves.
type stEntity struct {
	id      string
	feature sensor.Feature
	encode  func(v sensor.Value) string
	decode  sensor.Converter
}

func stOnOff(v sensor.Value) string {
	if b, _ := v.Bool(); b {
		return "on"
	}
	return "off"
}

func stNumber(v sensor.Value) string {
	n, _ := v.Number()
	return strconv.FormatFloat(n, 'f', -1, 64)
}

func stLabel(v sensor.Value) string {
	l, _ := v.Label()
	return l
}

func stDecodeNumber(raw any) (sensor.Value, error) {
	s, ok := raw.(string)
	if !ok {
		return sensor.NumberIdentity(raw)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return sensor.Value{}, fmt.Errorf("bridge: not a numeric state: %q", s)
	}
	return sensor.Number(f), nil
}

func stDecodeLock(raw any) (sensor.Value, error) {
	return sensor.LockStateFromBool(raw)
}

// stEntities is the entity table the SmartThings bridge serves.
var stEntities = []stEntity{
	{id: "binary_sensor.smoke", feature: sensor.FeatSmoke, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "binary_sensor.gas", feature: sensor.FeatGas, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "binary_sensor.voice_command", feature: sensor.FeatVoiceCmd, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "lock.front_door", feature: sensor.FeatDoorLock, encode: stLabel, decode: stDecodeLock},
	{id: "sensor.temperature_indoor", feature: sensor.FeatTempIndoor, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.temperature_outdoor", feature: sensor.FeatTempOutdoor, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.air_quality", feature: sensor.FeatAirQuality, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.weather", feature: sensor.FeatWeather, encode: stLabel,
		decode: sensor.LabelIn(sensor.WeatherSunny, sensor.WeatherCloudy, sensor.WeatherRain, sensor.WeatherSnow)},
	{id: "binary_sensor.motion", feature: sensor.FeatMotion, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "sensor.hour_of_day", feature: sensor.FeatHour, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.humidity", feature: sensor.FeatHumidity, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.illuminance", feature: sensor.FeatIlluminance, encode: stNumber, decode: stDecodeNumber},
	{id: "binary_sensor.water_leak", feature: sensor.FeatWaterLeak, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "binary_sensor.occupancy", feature: sensor.FeatOccupancy, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "binary_sensor.window_contact", feature: sensor.FeatWindowOpen, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "binary_sensor.door_contact", feature: sensor.FeatDoorOpen, encode: stOnOff, decode: sensor.BoolFromOnOff},
	{id: "sensor.noise_level", feature: sensor.FeatNoise, encode: stNumber, decode: stDecodeNumber},
	{id: "sensor.power_draw", feature: sensor.FeatPowerDraw, encode: stNumber, decode: stDecodeNumber},
}

// STDecodeStates folds a set of bridge entities into a canonical snapshot —
// the collector-side half of the codec.
func STDecodeStates(entities []smartthings.Entity) (sensor.Snapshot, error) {
	snap := sensor.NewSnapshot(latestUpdate(entities))
	for _, ent := range entities {
		var def *stEntity
		for i := range stEntities {
			if stEntities[i].id == ent.EntityID {
				def = &stEntities[i]
				break
			}
		}
		if def == nil {
			continue // actuator entity or foreign integration: skip
		}
		v, err := def.decode(ent.State)
		if err != nil {
			return sensor.Snapshot{}, fmt.Errorf("bridge: entity %s state %q: %w", ent.EntityID, ent.State, err)
		}
		snap.Set(def.feature, v)
	}
	return snap, nil
}

func latestUpdate(entities []smartthings.Entity) time.Time {
	var t time.Time
	for _, e := range entities {
		if e.LastUpdated.After(t) {
			t = e.LastUpdated
		}
	}
	return t
}

// STBackend serves the home through the smartthings REST surface. Service
// calls use the instruction opcode split at the dot: POST
// /api/services/window/open with {"device_id": "window-1"} executes
// window.open on that device.
type STBackend struct {
	home     *home.Home
	registry *instr.Registry

	mu   sync.RWMutex
	gate func(in instr.Instruction, ctx sensor.Snapshot) error
}

var _ smartthings.Backend = (*STBackend)(nil)

// NewSTBackend binds a backend to a home.
func NewSTBackend(h *home.Home, reg *instr.Registry) *STBackend {
	return &STBackend{home: h, registry: reg}
}

// SetGate installs (or clears) the IDS authorisation hook for service
// calls. Safe to call while the bridge is serving.
func (b *STBackend) SetGate(gate func(in instr.Instruction, ctx sensor.Snapshot) error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = gate
}

func (b *STBackend) currentGate() func(in instr.Instruction, ctx sensor.Snapshot) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.gate
}

// States implements smartthings.Backend.
func (b *STBackend) States() ([]smartthings.Entity, error) {
	snap := b.home.Env().Snapshot()
	out := make([]smartthings.Entity, 0, len(stEntities)+8)
	for _, def := range stEntities {
		v, ok := snap.Get(def.feature)
		if !ok {
			continue
		}
		out = append(out, smartthings.Entity{
			EntityID:    def.id,
			State:       def.encode(v),
			LastUpdated: snap.At,
		})
	}
	// Actuator entities carry their raw device state as attributes.
	for _, d := range b.home.Devices() {
		out = append(out, smartthings.Entity{
			EntityID:    "device." + d.ID(),
			State:       "available",
			Attributes:  d.State(),
			LastUpdated: snap.At,
		})
	}
	return out, nil
}

// State implements smartthings.Backend.
func (b *STBackend) State(entityID string) (smartthings.Entity, bool, error) {
	all, err := b.States()
	if err != nil {
		return smartthings.Entity{}, false, err
	}
	for _, e := range all {
		if e.EntityID == entityID {
			return e, true, nil
		}
	}
	return smartthings.Entity{}, false, nil
}

// CallService implements smartthings.Backend.
func (b *STBackend) CallService(domain, service string, data map[string]any) ([]smartthings.Entity, error) {
	op := domain + "." + service
	deviceID, _ := data["device_id"].(string)
	if deviceID == "" {
		return nil, fmt.Errorf("bridge: service call needs device_id")
	}
	args := make(map[string]any, len(data))
	for k, v := range data {
		if k != "device_id" {
			args[k] = v
		}
	}
	in, err := b.registry.Build(op, deviceID, instr.OriginUser, args)
	if err != nil {
		return nil, err
	}
	if gate := b.currentGate(); gate != nil {
		if err := gate(in, b.home.Env().Snapshot()); err != nil {
			return nil, err
		}
	}
	if err := b.home.Execute(in); err != nil {
		return nil, err
	}
	ent, ok, err := b.State("device." + deviceID)
	if err != nil || !ok {
		return nil, err
	}
	return []smartthings.Entity{ent}, nil
}
