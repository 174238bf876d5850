package home

import (
	"testing"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func buildIn(t *testing.T, op, dev string, args map[string]any) instr.Instruction {
	t.Helper()
	in, err := instr.BuiltinRegistry().Build(op, dev, instr.OriginUser, args)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestTVControls(t *testing.T) {
	h := newTestHome(t)
	exec(t, h, "tv.on", "tv-1", nil)
	exec(t, h, "tv.set_volume", "tv-1", map[string]any{"volume": 55})
	exec(t, h, "tv.set_channel", "tv-1", map[string]any{"channel": 7})
	d, _ := h.Device("tv-1")
	st := d.State()
	if st["power"] != "on" || st["volume"].(float64) != 55 || st["channel"].(float64) != 7 {
		t.Errorf("tv state = %v", st)
	}
	// Idempotent power accounting.
	before, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	exec(t, h, "tv.on", "tv-1", nil)
	after, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	if before != after {
		t.Error("double tv.on changed power draw")
	}
	exec(t, h, "tv.off", "tv-1", nil)
	// Bad args.
	if err := h.Execute(buildIn(t, "tv.set_volume", "tv-1", map[string]any{"volume": 999})); err == nil {
		t.Error("want volume error")
	}
	if err := h.Execute(buildIn(t, "tv.set_channel", "tv-1", map[string]any{"channel": 0})); err == nil {
		t.Error("want channel error")
	}
	// Stereo aliases drive the same device.
	exec(t, h, "stereo.play", "tv-1", nil)
	if d.State()["power"] != "on" {
		t.Error("stereo.play did not power on")
	}
	exec(t, h, "stereo.pause", "tv-1", nil)
}

func TestCookerModesAndFridge(t *testing.T) {
	h := newTestHome(t)
	exec(t, h, "cooker.set_mode", "cooker-1", map[string]any{"mode": "steam"})
	d, _ := h.Device("cooker-1")
	if d.State()["mode"] != "steam" {
		t.Errorf("mode = %v", d.State()["mode"])
	}
	if err := h.Execute(buildIn(t, "cooker.set_mode", "cooker-1", nil)); err == nil {
		t.Error("want missing mode error")
	}
	exec(t, h, "fridge.set_temp", "cooker-1", map[string]any{"target": 4})
	if err := h.Execute(buildIn(t, "fridge.set_temp", "cooker-1", map[string]any{"target": 50})); err == nil {
		t.Error("want fridge target error")
	}
	// Dishwasher/oven aliases toggle the cooking flag.
	exec(t, h, "dishwasher.start", "cooker-1", nil)
	if d.State()["running"].(float64) != 1 {
		t.Error("dishwasher.start did not run")
	}
	exec(t, h, "oven.off", "cooker-1", nil)
	if d.State()["running"].(float64) != 0 {
		t.Error("oven.off did not stop")
	}
}

func TestVacuumAndMower(t *testing.T) {
	h := newTestHome(t)
	d, _ := h.Device("vacuum-1")
	exec(t, h, "mower.start", "vacuum-1", nil)
	if d.State()["state"] != "cleaning" {
		t.Errorf("state = %v", d.State()["state"])
	}
	before, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	exec(t, h, "vacuum.start", "vacuum-1", nil) // idempotent
	after, _ := h.Env().Snapshot().Number(sensor.FeatPowerDraw)
	if before != after {
		t.Error("double start changed power")
	}
	exec(t, h, "vacuum.dock", "vacuum-1", nil)
	if d.State()["state"] != "docked" {
		t.Errorf("state = %v", d.State()["state"])
	}
}

func TestCameraAndAlarmControls(t *testing.T) {
	h := newTestHome(t)
	exec(t, h, "camera.on", "camera-1", nil)
	exec(t, h, "camera.record", "camera-1", nil)
	exec(t, h, "camera.rotate", "camera-1", nil)
	d, _ := h.Device("camera-1")
	st := d.State()
	if st["power"] != "on" || st["recording"].(float64) != 1 {
		t.Errorf("camera state = %v", st)
	}
	exec(t, h, "camera.off", "camera-1", nil)

	exec(t, h, "alarm.arm", "alarm-hub-1", nil)
	exec(t, h, "alarm.siren_on", "alarm-hub-1", nil)
	a, _ := h.Device("alarm-hub-1")
	if a.State()["armed"].(float64) != 1 || a.State()["siren"].(float64) != 1 {
		t.Errorf("alarm state = %v", a.State())
	}
	// Siren drives the noise level.
	h.Env().Step(time.Minute)
	if n, _ := h.Env().Snapshot().Number(sensor.FeatNoise); n < 60 {
		t.Errorf("noise with siren = %v", n)
	}
	// Disarm silences the siren too.
	exec(t, h, "alarm.disarm", "alarm-hub-1", nil)
	if a.State()["siren"].(float64) != 0 {
		t.Error("disarm left the siren on")
	}
	exec(t, h, "alarm.test", "alarm-hub-1", nil)
}

func TestCurtainPositionAndLight(t *testing.T) {
	h := newTestHome(t)
	exec(t, h, "curtain.set_position", "curtain-1", map[string]any{"position": 25})
	d, _ := h.Device("curtain-1")
	if d.State()["position"].(float64) != 25 {
		t.Errorf("position = %v", d.State()["position"])
	}
	if err := h.Execute(buildIn(t, "curtain.set_position", "curtain-1", map[string]any{"position": 150})); err == nil {
		t.Error("want position error")
	}
	exec(t, h, "blind.tilt", "curtain-1", nil)
	// light toggle + color.
	exec(t, h, "light.toggle", "light-1", nil)
	l, _ := h.Device("light-1")
	if l.State()["power"] != "on" {
		t.Error("toggle did not turn on")
	}
	exec(t, h, "light.set_color", "light-1", map[string]any{"color": "warm"})
	if err := h.Execute(buildIn(t, "light.set_color", "light-1", nil)); err == nil {
		t.Error("want missing color error")
	}
	exec(t, h, "light.toggle", "light-1", nil)
	if l.State()["power"] != "off" {
		t.Error("toggle did not turn off")
	}
}

func TestWeatherEvolvesAndHazardsOccur(t *testing.T) {
	env := NewEnvironment(EnvConfig{Seed: 77})
	seenWeather := map[string]bool{}
	var sawSmoke, sawLeak bool
	for i := 0; i < 20000; i++ {
		env.Step(5 * time.Minute)
		s := env.Snapshot()
		w, _ := s.Get(sensor.FeatWeather)
		l, _ := w.Label()
		seenWeather[l] = true
		if s.Bool(sensor.FeatSmoke) {
			sawSmoke = true
		}
		if s.Bool(sensor.FeatWaterLeak) {
			sawLeak = true
		}
	}
	if len(seenWeather) < 3 {
		t.Errorf("weather states seen = %v", seenWeather)
	}
	if !sawSmoke || !sawLeak {
		t.Errorf("hazards never occurred: smoke=%v leak=%v", sawSmoke, sawLeak)
	}
	// Physical plausibility after a long run.
	s := env.Snapshot()
	if n, _ := s.Number(sensor.FeatAirQuality); n < 15 || n > 300 {
		t.Errorf("AQI drifted out of bounds: %v", n)
	}
	if n, _ := s.Number(sensor.FeatTempIndoor); n < -30 || n > 60 {
		t.Errorf("indoor temperature implausible: %v", n)
	}
}

func TestSeasonalColdAllowsSnow(t *testing.T) {
	env := NewEnvironment(EnvConfig{Seed: 3, SeasonalMid: -2})
	sawSnow := false
	for i := 0; i < 20000 && !sawSnow; i++ {
		env.Step(5 * time.Minute)
		if w, _ := env.Snapshot().Get(sensor.FeatWeather); w == sensor.Label(sensor.WeatherSnow) {
			sawSnow = true
		}
	}
	if !sawSnow {
		t.Error("cold climate never snowed")
	}
}

func TestDeviceByCategoryMiss(t *testing.T) {
	h := New(NewEnvironment(EnvConfig{}))
	if _, ok := h.DeviceByCategory(instr.CatCamera); ok {
		t.Error("empty home claims a camera")
	}
}
