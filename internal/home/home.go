package home

import (
	"fmt"
	"sort"
	"sync"

	"iotsid/internal/instr"
)

// Home ties the environment to a device fleet and routes instructions.
type Home struct {
	env *Environment

	mu      sync.RWMutex
	devices map[string]Device
}

// New builds an empty home around an environment.
func New(env *Environment) *Home {
	return &Home{env: env, devices: make(map[string]Device)}
}

// Env returns the home's environment.
func (h *Home) Env() *Environment { return h.env }

// AddDevice registers a device; duplicate IDs are an error.
func (h *Home) AddDevice(d Device) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d.ID() == "" {
		return fmt.Errorf("home: device with empty ID")
	}
	if _, dup := h.devices[d.ID()]; dup {
		return fmt.Errorf("home: duplicate device ID %q", d.ID())
	}
	h.devices[d.ID()] = d
	return nil
}

// Device looks a device up by ID.
func (h *Home) Device(id string) (Device, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	d, ok := h.devices[id]
	return d, ok
}

// Devices lists every device sorted by ID.
func (h *Home) Devices() []Device {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Device, 0, len(h.devices))
	for _, d := range h.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Execute routes an instruction to its device.
func (h *Home) Execute(in instr.Instruction) error {
	h.mu.RLock()
	d, ok := h.devices[in.DeviceID]
	h.mu.RUnlock()
	if !ok {
		return fmt.Errorf("home: no device %q", in.DeviceID)
	}
	if err := d.Execute(in); err != nil {
		return fmt.Errorf("execute %s on %s: %w", in.Op, in.DeviceID, err)
	}
	return nil
}

// StandardDeviceIDs lists the IDs NewStandard creates, one per category.
var StandardDeviceIDs = map[instr.Category]string{
	instr.CatAlarm:           "alarm-hub-1",
	instr.CatKitchen:         "cooker-1",
	instr.CatEntertainment:   "tv-1",
	instr.CatAirConditioning: "aircon-1",
	instr.CatCurtain:         "curtain-1",
	instr.CatLighting:        "light-1",
	instr.CatWindowDoorLock:  "window-1",
	instr.CatVacuum:          "vacuum-1",
	instr.CatCamera:          "camera-1",
}

// standardLockID is the second window_door_lock device NewStandard creates.
const standardLockID = "lock-1"

// NewStandard builds the reference deployment: one device per Table I
// category plus a smart lock, all bound to a fresh environment.
func NewStandard(cfg EnvConfig) (*Home, error) {
	env := NewEnvironment(cfg)
	h := New(env)
	devices := []Device{
		NewAlarmHub(StandardDeviceIDs[instr.CatAlarm], env),
		NewCooker(StandardDeviceIDs[instr.CatKitchen], env),
		NewTV(StandardDeviceIDs[instr.CatEntertainment], env),
		NewAirConditioner(StandardDeviceIDs[instr.CatAirConditioning], env),
		NewCurtain(StandardDeviceIDs[instr.CatCurtain], env),
		NewLight(StandardDeviceIDs[instr.CatLighting], env),
		NewWindowActuator(StandardDeviceIDs[instr.CatWindowDoorLock], env),
		NewDoorLock(standardLockID, env),
		NewVacuum(StandardDeviceIDs[instr.CatVacuum], env),
		NewCamera(StandardDeviceIDs[instr.CatCamera], env),
	}
	for _, d := range devices {
		if err := h.AddDevice(d); err != nil {
			return nil, err
		}
	}
	return h, nil
}
