package sensor

import (
	"fmt"
	"strings"
	"time"
)

// Converter turns one vendor-encoded raw field into a canonical Value.
type Converter func(raw any) (Value, error)

// FieldMapping binds a vendor payload key to a canonical feature plus the
// converter that decodes the vendor's encoding.
type FieldMapping struct {
	Feature Feature
	Convert Converter
}

// Normalizer rewrites vendor-specific payloads (Xiaomi property maps,
// SmartThings entity states, ...) into the unified Snapshot form. It is the
// "simple processing" stage of the paper's sensor data collector.
type Normalizer struct {
	fields map[string]FieldMapping
}

// NewNormalizer builds a normalizer over a vendor key → mapping table.
func NewNormalizer(fields map[string]FieldMapping) *Normalizer {
	copied := make(map[string]FieldMapping, len(fields))
	for k, v := range fields {
		copied[k] = v
	}
	return &Normalizer{fields: copied}
}

// Normalize converts a raw vendor payload into a snapshot stamped at t.
// Unknown keys are ignored (vendor payloads carry plenty of bookkeeping);
// known keys that fail conversion are an error.
func (n *Normalizer) Normalize(raw map[string]any, t time.Time) (Snapshot, error) {
	snap := NewSnapshot(t)
	for key, val := range raw {
		mapping, ok := n.fields[key]
		if !ok {
			continue
		}
		v, err := mapping.Convert(val)
		if err != nil {
			return Snapshot{}, fmt.Errorf("normalize key %q: %w", key, err)
		}
		if v.IsZero() {
			continue
		}
		snap.Set(mapping.Feature, v)
	}
	return snap, nil
}

// Stock converters for the encodings the two vendor substrates use.

// BoolFrom01 decodes 0/1 (or true/false) into a boolean value.
func BoolFrom01(raw any) (Value, error) {
	switch t := raw.(type) {
	case bool:
		return Bool(t), nil
	case float64:
		return Bool(t != 0), nil
	case int:
		return Bool(t != 0), nil
	case string:
		switch strings.ToLower(t) {
		case "1", "true", "yes", "alarm":
			return Bool(true), nil
		case "0", "false", "no", "normal":
			return Bool(false), nil
		}
		return Value{}, fmt.Errorf("not a boolean string: %q", t)
	default:
		return Value{}, fmt.Errorf("not a boolean: %T", raw)
	}
}

// BoolFromOnOff decodes Home-Assistant-style "on"/"off" (also
// "open"/"closed", "detected"/"clear", "home"/"away") into a boolean value.
func BoolFromOnOff(raw any) (Value, error) {
	s, ok := raw.(string)
	if !ok {
		return BoolFrom01(raw)
	}
	switch strings.ToLower(s) {
	case "on", "open", "detected", "home", "wet", "triggered":
		return Bool(true), nil
	case "off", "closed", "clear", "away", "dry", "idle":
		return Bool(false), nil
	default:
		return Value{}, fmt.Errorf("not an on/off state: %q", s)
	}
}

// NumberIdentity decodes a plain numeric field.
func NumberIdentity(raw any) (Value, error) {
	v, err := FromAny(raw)
	if err != nil {
		return Value{}, err
	}
	if _, ok := v.Number(); !ok {
		return Value{}, fmt.Errorf("not a number: %v", raw)
	}
	return v, nil
}

// NumberScaled decodes a numeric field stored at a fixed scale, e.g. Xiaomi
// reports temperature in centi-degrees; NumberScaled(0.01) recovers °C.
func NumberScaled(scale float64) Converter {
	return func(raw any) (Value, error) {
		v, err := NumberIdentity(raw)
		if err != nil {
			return Value{}, err
		}
		n, _ := v.Number()
		return Number(n * scale), nil
	}
}

// LabelIn decodes a string field naming a label of f's domain.
func LabelIn(f Feature) Converter {
	return func(raw any) (Value, error) {
		s, ok := raw.(string)
		if !ok {
			return Value{}, fmt.Errorf("not a label: %T", raw)
		}
		l, ok := ParseLabel(f, strings.ToLower(s))
		if !ok {
			return Value{}, fmt.Errorf("label %q outside the domain of %v", s, f)
		}
		return Label(l), nil
	}
}

// LockStateFromBool decodes a locked boolean (or "locked"/"unlocked"
// string) into the door_lock label domain.
func LockStateFromBool(raw any) (Value, error) {
	if _, ok := raw.(string); ok {
		return LabelIn(FeatDoorLock)(raw)
	}
	v, err := BoolFrom01(raw)
	if err != nil {
		return Value{}, err
	}
	if b, _ := v.Bool(); b {
		return Label(LockLocked), nil
	}
	return Label(LockUnlocked), nil
}
