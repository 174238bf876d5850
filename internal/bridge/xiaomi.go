// Package bridge binds the home simulator to the two vendor protocol
// substrates: it serves the home's sensors and devices through the
// miio-style encrypted UDP gateway (Xiaomi path) and through the Home-
// Assistant-style REST API (SmartThings path), and provides the matching
// normalisation tables the IDS collector uses to turn raw vendor payloads
// back into canonical snapshots.
package bridge

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"iotsid/internal/home"
	"iotsid/internal/instr"
	"iotsid/internal/miio"
	"iotsid/internal/sensor"
)

// xiaomiProp describes one vendor property: its wire name, the canonical
// feature it encodes, the vendor encoding (applied by the simulated
// gateway) and the decoder (used by the collector's normalizer).
type xiaomiProp struct {
	name    string
	feature sensor.Feature
	encode  func(v sensor.Value) any
	decode  sensor.Converter
}

func encodeBool01(v sensor.Value) any {
	if b, _ := v.Bool(); b {
		return 1
	}
	return 0
}

func encodeCenti(v sensor.Value) any {
	n, _ := v.Number()
	return int(math.Round(n * 100))
}

func encodeNumber(v sensor.Value) any {
	n, _ := v.Number()
	return math.Round(n*10) / 10
}

func encodeLabel(v sensor.Value) any {
	l, _ := v.Label()
	return l.String()
}

func encodeLock(v sensor.Value) any {
	if l, _ := v.Label(); l == sensor.LockLocked {
		return 1
	}
	return 0
}

// xiaomiProps is the property table of the simulated gateway — the analogue
// of the instruction/property set extracted from the vendor firmware.
// Temperatures ride the wire in centi-degrees, booleans as 0/1, exactly
// like the physical devices.
var xiaomiProps = []xiaomiProp{
	{name: "alarm", feature: sensor.FeatSmoke, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "natgas", feature: sensor.FeatGas, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "voice_evt", feature: sensor.FeatVoiceCmd, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "lock_state", feature: sensor.FeatDoorLock, encode: encodeLock, decode: sensor.LockStateFromBool},
	{name: "temperature", feature: sensor.FeatTempIndoor, encode: encodeCenti, decode: sensor.NumberScaled(0.01)},
	{name: "outdoor_temperature", feature: sensor.FeatTempOutdoor, encode: encodeCenti, decode: sensor.NumberScaled(0.01)},
	{name: "aqi", feature: sensor.FeatAirQuality, encode: encodeNumber, decode: sensor.NumberIdentity},
	{name: "weather", feature: sensor.FeatWeather, encode: encodeLabel,
		decode: sensor.LabelIn(sensor.FeatWeather)},
	{name: "motion_status", feature: sensor.FeatMotion, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "hour", feature: sensor.FeatHour, encode: encodeNumber, decode: sensor.NumberIdentity},
	{name: "humidity", feature: sensor.FeatHumidity, encode: encodeCenti, decode: sensor.NumberScaled(0.01)},
	{name: "lux", feature: sensor.FeatIlluminance, encode: encodeNumber, decode: sensor.NumberIdentity},
	{name: "wleak", feature: sensor.FeatWaterLeak, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "occupied", feature: sensor.FeatOccupancy, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "window_status", feature: sensor.FeatWindowOpen, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "door_status", feature: sensor.FeatDoorOpen, encode: encodeBool01, decode: sensor.BoolFrom01},
	{name: "noise", feature: sensor.FeatNoise, encode: encodeNumber, decode: sensor.NumberIdentity},
	{name: "load_power", feature: sensor.FeatPowerDraw, encode: encodeNumber, decode: sensor.NumberIdentity},
}

// XiaomiPropNames lists every property the simulated gateway serves, in
// table order.
func XiaomiPropNames() []string {
	out := make([]string, len(xiaomiProps))
	for i, p := range xiaomiProps {
		out[i] = p.name
	}
	return out
}

// XiaomiNormalizer builds the normalizer that decodes a gateway property
// map back into a canonical snapshot.
func XiaomiNormalizer() *sensor.Normalizer {
	fields := make(map[string]sensor.FieldMapping, len(xiaomiProps))
	for _, p := range xiaomiProps {
		fields[p.name] = sensor.FieldMapping{Feature: p.feature, Convert: p.decode}
	}
	return sensor.NewNormalizer(fields)
}

// XiaomiHandler serves the home through the miio RPC surface:
//
//	get_prop      params ["alarm","temperature",...] → [0, 2150, ...]
//	get_device    params ["window-1"]                → device state map
//	execute       params {"op": "...", "device": "...", "args": {...}}
//	miIO.info     → gateway info document
type XiaomiHandler struct {
	home     *home.Home
	registry *instr.Registry

	mu   sync.RWMutex
	gate func(in instr.Instruction, ctx sensor.Snapshot) error
}

var _ miio.Handler = (*XiaomiHandler)(nil)

// NewXiaomiHandler binds a handler to a home.
func NewXiaomiHandler(h *home.Home, reg *instr.Registry) *XiaomiHandler {
	return &XiaomiHandler{home: h, registry: reg}
}

// SetGate installs (or clears) the IDS authorisation hook for control
// instructions. Safe to call while the gateway is serving.
func (x *XiaomiHandler) SetGate(gate func(in instr.Instruction, ctx sensor.Snapshot) error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.gate = gate
}

func (x *XiaomiHandler) currentGate() func(in instr.Instruction, ctx sensor.Snapshot) error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.gate
}

// Handle implements miio.Handler.
func (x *XiaomiHandler) Handle(method string, params json.RawMessage) (any, error) {
	switch method {
	case "miIO.info":
		return map[string]any{
			"model":  "lumi.gateway.v3",
			"fw_ver": "1.4.1_164",
			"mac":    "0A:0B:0C:0D:0E:0F",
		}, nil
	case "get_prop":
		return x.getProp(params)
	case "get_device":
		return x.getDevice(params)
	case "execute":
		return x.execute(params)
	default:
		return nil, &miio.RPCError{Code: -32601, Message: fmt.Sprintf("method %q not found", method)}
	}
}

func (x *XiaomiHandler) getProp(params json.RawMessage) (any, error) {
	var names []string
	if err := json.Unmarshal(params, &names); err != nil {
		return nil, &miio.RPCError{Code: -32602, Message: "get_prop expects a string array"}
	}
	snap := x.home.Env().Snapshot()
	out := make([]any, 0, len(names))
	for _, name := range names {
		prop, ok := lookupProp(name)
		if !ok {
			return nil, &miio.RPCError{Code: -4, Message: fmt.Sprintf("unknown prop %q", name)}
		}
		v, ok := snap.Get(prop.feature)
		if !ok {
			return nil, &miio.RPCError{Code: -5, Message: fmt.Sprintf("prop %q unavailable", name)}
		}
		out = append(out, prop.encode(v))
	}
	return out, nil
}

func lookupProp(name string) (xiaomiProp, bool) {
	for _, p := range xiaomiProps {
		if p.name == name {
			return p, true
		}
	}
	return xiaomiProp{}, false
}

func (x *XiaomiHandler) getDevice(params json.RawMessage) (any, error) {
	var ids []string
	if err := json.Unmarshal(params, &ids); err != nil || len(ids) != 1 {
		return nil, &miio.RPCError{Code: -32602, Message: "get_device expects [deviceID]"}
	}
	d, ok := x.home.Device(ids[0])
	if !ok {
		return nil, &miio.RPCError{Code: -6, Message: fmt.Sprintf("unknown device %q", ids[0])}
	}
	return d.State(), nil
}

type executeParams struct {
	Op     string         `json:"op"`
	Device string         `json:"device"`
	Args   map[string]any `json:"args,omitempty"`
}

func (x *XiaomiHandler) execute(params json.RawMessage) (any, error) {
	var p executeParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, &miio.RPCError{Code: -32602, Message: "execute expects {op, device, args}"}
	}
	in, err := x.registry.Build(p.Op, p.Device, instr.OriginUser, p.Args)
	if err != nil {
		return nil, &miio.RPCError{Code: -7, Message: err.Error()}
	}
	if gate := x.currentGate(); gate != nil {
		if err := gate(in, x.home.Env().Snapshot()); err != nil {
			return nil, &miio.RPCError{Code: -8, Message: err.Error()}
		}
	}
	if err := x.home.Execute(in); err != nil {
		return nil, &miio.RPCError{Code: -9, Message: err.Error()}
	}
	return []string{"ok"}, nil
}
