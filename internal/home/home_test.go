package home

import (
	"errors"
	"testing"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func newTestHome(t *testing.T) *Home {
	t.Helper()
	h, err := NewStandard(EnvConfig{Seed: 1})
	if err != nil {
		t.Fatalf("NewStandard: %v", err)
	}
	return h
}

func exec(t *testing.T, h *Home, op, deviceID string, args map[string]any) {
	t.Helper()
	in, err := instr.BuiltinRegistry().Build(op, deviceID, instr.OriginUser, args)
	if err != nil {
		t.Fatalf("build %s: %v", op, err)
	}
	if err := h.Execute(in); err != nil {
		t.Fatalf("execute %s: %v", op, err)
	}
}

func TestNewStandardDeployment(t *testing.T) {
	h := newTestHome(t)
	if got := len(h.Devices()); got != 10 {
		t.Fatalf("devices = %d, want 10", got)
	}
	for cat, id := range StandardDeviceIDs {
		d, ok := h.Device(id)
		if !ok {
			t.Errorf("device %q missing", id)
			continue
		}
		if d.Category() != cat {
			t.Errorf("device %q category = %v, want %v", id, d.Category(), cat)
		}
	}
	for _, c := range instr.Categories() {
		if _, ok := h.DeviceByCategory(c); !ok {
			t.Errorf("no device for category %v", c)
		}
	}
}

func TestAddDeviceValidation(t *testing.T) {
	h := New(NewEnvironment(EnvConfig{}))
	if err := h.AddDevice(NewLight("", h.Env())); err == nil {
		t.Error("want error for empty ID")
	}
	if err := h.AddDevice(NewLight("l", h.Env())); err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	if err := h.AddDevice(NewLight("l", h.Env())); err == nil {
		t.Error("want error for duplicate ID")
	}
}

func TestExecuteRouting(t *testing.T) {
	h := newTestHome(t)
	in, _ := instr.BuiltinRegistry().Build("light.on", "no-such-device", instr.OriginUser, nil)
	if err := h.Execute(in); err == nil {
		t.Error("want error for unknown device")
	}
	// Wrong op for the device surfaces an OpError.
	in, _ = instr.BuiltinRegistry().Build("light.on", "window-1", instr.OriginUser, nil)
	err := h.Execute(in)
	var opErr *OpError
	if !errors.As(err, &opErr) {
		t.Errorf("want OpError, got %v", err)
	}
}

func TestWindowAffectsSnapshotAndPhysics(t *testing.T) {
	h := newTestHome(t)
	if h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window should start closed")
	}
	exec(t, h, "window.open", "window-1", nil)
	if !h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window.open not reflected in snapshot")
	}
	exec(t, h, "window.close", "window-1", nil)
	if h.Env().Snapshot().Bool(sensor.FeatWindowOpen) {
		t.Fatal("window.close not reflected")
	}
}

func TestLockAndDoor(t *testing.T) {
	h := newTestHome(t)
	snap := h.Env().Snapshot()
	if v, _ := snap.Get(sensor.FeatDoorLock); v != sensor.Label(sensor.LockLocked) {
		t.Fatal("door should start locked")
	}
	exec(t, h, "lock.unlock", "lock-1", nil)
	exec(t, h, "door.open", "lock-1", nil)
	snap = h.Env().Snapshot()
	if v, _ := snap.Get(sensor.FeatDoorLock); v != sensor.Label(sensor.LockUnlocked) {
		t.Error("unlock not reflected")
	}
	if !snap.Bool(sensor.FeatDoorOpen) {
		t.Error("door open not reflected")
	}
	// door.open on a locked door unlocks it (physical necessity).
	exec(t, h, "door.close", "lock-1", nil)
	exec(t, h, "lock.lock", "lock-1", nil)
	exec(t, h, "door.open", "lock-1", nil)
	if v, _ := h.Env().Snapshot().Get(sensor.FeatDoorLock); v != sensor.Label(sensor.LockUnlocked) {
		t.Error("opening the door must release the lock")
	}
}

func TestLightPowerAndIlluminance(t *testing.T) {
	h := newTestHome(t)
	before, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	exec(t, h, "light.on", "light-1", nil)
	after, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	if after <= before {
		t.Errorf("power draw should rise with light on: %v -> %v", before, after)
	}
	// Idempotent: double-on does not double-count.
	exec(t, h, "light.on", "light-1", nil)
	again, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	if again != after {
		t.Errorf("double light.on changed power: %v -> %v", after, again)
	}
	exec(t, h, "light.off", "light-1", nil)
	off, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	if off != before {
		t.Errorf("light.off should restore power: %v, want %v", off, before)
	}
}

func TestLightArgsValidation(t *testing.T) {
	h := newTestHome(t)
	in, _ := instr.BuiltinRegistry().Build("light.set_brightness", "light-1", instr.OriginUser, map[string]any{"brightness": 150})
	if err := h.Execute(in); err == nil {
		t.Error("want error for out-of-range brightness")
	}
	in, _ = instr.BuiltinRegistry().Build("light.set_brightness", "light-1", instr.OriginUser, nil)
	if err := h.Execute(in); err == nil {
		t.Error("want error for missing brightness")
	}
	exec(t, h, "light.set_brightness", "light-1", map[string]any{"brightness": 40})
	d, _ := h.Device("light-1")
	if b := d.State()["brightness"].(float64); b != 40 {
		t.Errorf("brightness = %v", b)
	}
}

func TestAirconHeatsAndCools(t *testing.T) {
	h := newTestHome(t)
	env := h.Env()
	exec(t, h, "aircon.set_heat", "aircon-1", nil)
	exec(t, h, "thermostat.set_target", "aircon-1", map[string]any{"target": 26})
	start, _ := env.Snapshot().Number(sensor.FeatTempIndoor)
	for i := 0; i < 60; i++ {
		env.Step(time.Minute)
	}
	warm, _ := env.Snapshot().Number(sensor.FeatTempIndoor)
	if warm <= start {
		t.Errorf("heating did not raise indoor temp: %v -> %v", start, warm)
	}
	exec(t, h, "aircon.set_cool", "aircon-1", nil)
	exec(t, h, "thermostat.set_target", "aircon-1", map[string]any{"target": 18})
	for i := 0; i < 60; i++ {
		env.Step(time.Minute)
	}
	cool, _ := env.Snapshot().Number(sensor.FeatTempIndoor)
	if cool >= warm {
		t.Errorf("cooling did not lower indoor temp: %v -> %v", warm, cool)
	}
	in, _ := instr.BuiltinRegistry().Build("aircon.set_temp", "aircon-1", instr.OriginUser, map[string]any{"target": 99})
	if err := h.Execute(in); err == nil {
		t.Error("want error for silly target")
	}
}

func TestCookingRaisesAQIAndSmokeRisk(t *testing.T) {
	h, err := NewStandard(EnvConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env := h.Env()
	base, _ := env.Snapshot().Number(sensor.FeatAirQuality)
	exec(t, h, "cooker.start", "cooker-1", nil)
	for i := 0; i < 120; i++ {
		env.Step(time.Minute)
	}
	cookAQI, _ := env.Snapshot().Number(sensor.FeatAirQuality)
	if cookAQI <= base {
		t.Errorf("cooking should raise AQI: %v -> %v", base, cookAQI)
	}
}

func TestCameraAlerts(t *testing.T) {
	h := newTestHome(t)
	exec(t, h, "camera.alert_user", "camera-1", map[string]any{"message": "window opened"})
	exec(t, h, "camera.alert_user", "camera-1", nil)
	d, _ := h.Device("camera-1")
	cam, ok := d.(*Camera)
	if !ok {
		t.Fatal("camera-1 is not a *Camera")
	}
	alerts := cam.Alerts()
	if len(alerts) != 2 || alerts[0] != "window opened" || alerts[1] != "warning" {
		t.Errorf("alerts = %v", alerts)
	}
}

func TestEnvironmentStepAdvancesClock(t *testing.T) {
	env := NewEnvironment(EnvConfig{Seed: 1})
	before := env.Now()
	env.Step(30 * time.Minute)
	if got := env.Now().Sub(before); got != 30*time.Minute {
		t.Errorf("clock advanced %v", got)
	}
}

func TestEnvironmentSnapshotValid(t *testing.T) {
	env := NewEnvironment(EnvConfig{Seed: 9})
	for i := 0; i < 500; i++ {
		env.Step(7 * time.Minute)
		if err := env.Snapshot().Validate(); err != nil {
			t.Fatalf("step %d: invalid snapshot: %v", i, err)
		}
	}
}

func TestEnvironmentApplyOverrides(t *testing.T) {
	env := NewEnvironment(EnvConfig{Seed: 1})
	s := sensor.NewSnapshot(env.Now())
	s.Set(sensor.FeatSmoke, sensor.Bool(true))
	s.Set(sensor.FeatOccupancy, sensor.Bool(false))
	s.Set(sensor.FeatTempIndoor, sensor.Number(30))
	s.Set(sensor.FeatWeather, sensor.Label(sensor.WeatherRain))
	s.Set(sensor.FeatDoorLock, sensor.Label(sensor.LockUnlocked))
	env.Apply(s)
	snap := env.Snapshot()
	if !snap.Bool(sensor.FeatSmoke) {
		t.Error("smoke override lost")
	}
	if snap.Bool(sensor.FeatOccupancy) {
		t.Error("occupancy override lost")
	}
	if n, _ := snap.Number(sensor.FeatTempIndoor); n != 30 {
		t.Errorf("temp = %v", n)
	}
	if v, _ := snap.Get(sensor.FeatWeather); v != sensor.Label(sensor.WeatherRain) {
		t.Error("weather override lost")
	}
	if v, _ := snap.Get(sensor.FeatDoorLock); v != sensor.Label(sensor.LockUnlocked) {
		t.Error("lock override lost")
	}
}

func TestDeviceStatesServeVendorPayloads(t *testing.T) {
	h := newTestHome(t)
	for _, d := range h.Devices() {
		st := d.State()
		if len(st) == 0 {
			t.Errorf("device %q has empty state", d.ID())
		}
	}
	// Alarm hub exposes hazard booleans as 0/1 for the miio substrate.
	d, _ := h.Device("alarm-hub-1")
	st := d.State()
	for _, key := range []string{"armed", "siren", "smoke", "gas", "water", "motion"} {
		if _, ok := st[key].(float64); !ok {
			t.Errorf("alarm state %q not a float64 0/1", key)
		}
	}
}

func TestStatusInstructionsAreNoOps(t *testing.T) {
	h := newTestHome(t)
	before := h.Env().Snapshot()
	for _, pair := range [][2]string{
		{"window.get_state", "window-1"},
		{"lock.get_state", "lock-1"},
		{"light.get_state", "light-1"},
		{"aircon.get_state", "aircon-1"},
		{"curtain.get_position", "curtain-1"},
		{"tv.get_state", "tv-1"},
		{"cooker.get_state", "cooker-1"},
		{"vacuum.get_state", "vacuum-1"},
		{"camera.get_state", "camera-1"},
		{"alarm.get_state", "alarm-hub-1"},
	} {
		exec(t, h, pair[0], pair[1], nil)
	}
	after := h.Env().Snapshot()
	before.Range(func(f sensor.Feature, v sensor.Value) bool {
		if got, _ := after.Get(f); !got.Equal(v) {
			t.Errorf("status op mutated %q: %v -> %v", f, v, got)
		}
		return true
	})
}
