package sensor

import (
	"testing"
	"time"
)

func TestNormalizerXiaomiStyle(t *testing.T) {
	n := NewNormalizer(map[string]FieldMapping{
		"alarm":       {Feature: FeatSmoke, Convert: BoolFrom01},
		"temperature": {Feature: FeatTempIndoor, Convert: NumberScaled(0.01)},
		"lock_state":  {Feature: FeatDoorLock, Convert: LockStateFromBool},
	})
	raw := map[string]any{
		"alarm":       float64(1),
		"temperature": float64(2250), // centi-degrees
		"lock_state":  float64(1),
		"fw_ver":      "1.4.1_164", // bookkeeping, ignored
	}
	snap, err := n.Normalize(raw, testTime)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if !snap.Bool(FeatSmoke) {
		t.Error("smoke should be true")
	}
	if temp, _ := snap.Number(FeatTempIndoor); temp != 22.5 {
		t.Errorf("temp = %v, want 22.5", temp)
	}
	if got, _ := snap.Get(FeatDoorLock); got != Label(LockLocked) {
		t.Errorf("lock = %v", got)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("normalized snapshot invalid: %v", err)
	}
}

func TestNormalizerConversionError(t *testing.T) {
	n := NewNormalizer(map[string]FieldMapping{
		"alarm": {Feature: FeatSmoke, Convert: BoolFrom01},
	})
	if _, err := n.Normalize(map[string]any{"alarm": "maybe"}, time.Time{}); err == nil {
		t.Error("want conversion error")
	}
}

func TestBoolFrom01(t *testing.T) {
	tests := []struct {
		in   any
		want bool
		ok   bool
	}{
		{in: true, want: true, ok: true},
		{in: float64(0), want: false, ok: true},
		{in: float64(2), want: true, ok: true},
		{in: 1, want: true, ok: true},
		{in: "1", want: true, ok: true},
		{in: "alarm", want: true, ok: true},
		{in: "normal", want: false, ok: true},
		{in: "??", ok: false},
		{in: []int{}, ok: false},
	}
	for _, tt := range tests {
		v, err := BoolFrom01(tt.in)
		if tt.ok != (err == nil) {
			t.Errorf("BoolFrom01(%v) err = %v", tt.in, err)
			continue
		}
		if err == nil {
			if b, _ := v.Bool(); b != tt.want {
				t.Errorf("BoolFrom01(%v) = %v, want %v", tt.in, b, tt.want)
			}
		}
	}
}

func TestBoolFromOnOff(t *testing.T) {
	truthy := []string{"on", "open", "detected", "home", "wet", "triggered"}
	falsy := []string{"off", "closed", "clear", "away", "dry", "idle"}
	for _, s := range truthy {
		v, err := BoolFromOnOff(s)
		if err != nil {
			t.Errorf("BoolFromOnOff(%q): %v", s, err)
			continue
		}
		if b, _ := v.Bool(); !b {
			t.Errorf("BoolFromOnOff(%q) = false", s)
		}
	}
	for _, s := range falsy {
		v, err := BoolFromOnOff(s)
		if err != nil {
			t.Errorf("BoolFromOnOff(%q): %v", s, err)
			continue
		}
		if b, _ := v.Bool(); b {
			t.Errorf("BoolFromOnOff(%q) = true", s)
		}
	}
	if _, err := BoolFromOnOff("sideways"); err == nil {
		t.Error("want error for unknown state")
	}
	// Falls back to 0/1 decoding for non-strings.
	if v, err := BoolFromOnOff(float64(1)); err != nil {
		t.Errorf("numeric fallback: %v", err)
	} else if b, _ := v.Bool(); !b {
		t.Error("numeric fallback = false")
	}
}

func TestNumberConverters(t *testing.T) {
	if _, err := NumberIdentity("x"); err == nil {
		t.Error("NumberIdentity should reject labels")
	}
	v, err := NumberScaled(0.1)(float64(215))
	if err != nil {
		t.Fatalf("NumberScaled: %v", err)
	}
	if n, _ := v.Number(); n != 21.5 {
		t.Errorf("scaled = %v", n)
	}
	if _, err := NumberScaled(0.1)("x"); err == nil {
		t.Error("NumberScaled should propagate errors")
	}
}

func TestLabelIn(t *testing.T) {
	conv := LabelIn(WeatherSunny, WeatherRain)
	if v, err := conv("RAIN"); err != nil {
		t.Errorf("LabelIn: %v", err)
	} else if l, _ := v.Label(); l != WeatherRain {
		t.Errorf("label = %q", l)
	}
	if _, err := conv("snow"); err == nil {
		t.Error("want domain error")
	}
	if _, err := conv(5); err == nil {
		t.Error("want type error")
	}
}

func TestLockStateFromBool(t *testing.T) {
	cases := map[any]string{
		"locked":   LockLocked,
		"UNLOCKED": LockUnlocked,
		float64(1): LockLocked,
		float64(0): LockUnlocked,
		true:       LockLocked,
	}
	for in, want := range cases {
		v, err := LockStateFromBool(in)
		if err != nil {
			t.Errorf("LockStateFromBool(%v): %v", in, err)
			continue
		}
		if l, _ := v.Label(); l != want {
			t.Errorf("LockStateFromBool(%v) = %q, want %q", in, l, want)
		}
	}
	if _, err := LockStateFromBool("ajar"); err == nil {
		t.Error("want error for unknown lock state")
	}
}
