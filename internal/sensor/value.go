package sensor

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"iotsid/internal/jsonwire"
)

// Value is the tagged union carried by a sensor reading: a boolean (logic-
// oriented discrete value), a float64 (data-oriented continuous value) or a
// label of the vocabulary. The zero Value is "absent". A Value is 16 B and
// holds no pointer.
type Value struct {
	typ   FeatureType
	b     bool
	label LabelID
	n     float64
}

// Bool constructs a boolean value.
func Bool(v bool) Value { return Value{typ: TypeBool, b: v} }

// Number constructs a continuous numeric value.
func Number(v float64) Value { return Value{typ: TypeNumber, n: v} }

// Label constructs a categorical value.
func Label(l LabelID) Value { return Value{typ: TypeLabel, label: l} }

// Type returns the value's feature type; zero for an absent value.
func (v Value) Type() FeatureType { return v.typ }

// IsZero reports whether the value is absent.
func (v Value) IsZero() bool { return v.typ == 0 }

// Bool returns the boolean payload and whether the value holds one.
func (v Value) Bool() (bool, bool) { return v.b, v.typ == TypeBool }

// Number returns the numeric payload and whether the value holds one.
func (v Value) Number() (float64, bool) { return v.n, v.typ == TypeNumber }

// Label returns the label payload and whether the value holds one.
func (v Value) Label() (LabelID, bool) { return v.label, v.typ == TypeLabel }

// Numeric coerces the value into a float64 for machine-learning encoders:
// booleans map to 0/1, numbers pass through. Label values do not coerce and
// return false — categorical features must be handled as categories.
func (v Value) Numeric() (float64, bool) {
	switch v.typ {
	case TypeBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case TypeNumber:
		return v.n, true
	default:
		return 0, false
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool { return v == o }

// String renders the value for logs.
func (v Value) String() string {
	switch v.typ {
	case TypeBool:
		return strconv.FormatBool(v.b)
	case TypeNumber:
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case TypeLabel:
		return v.label.String()
	default:
		return "<absent>"
	}
}

// MarshalJSON encodes the value as its natural JSON type — this is the
// "unified JSON format" of the paper's collector. An absent value is null;
// NaN and the infinities have no JSON form and fail.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValue(make([]byte, 0, valueSizeHint(v)), v)
}

// UnmarshalJSON decodes a JSON boolean, number, label name or null (an
// absent value) into the value. A string that names no label is an error.
// On error the value is left unchanged.
func (v *Value) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDecoder(data)
	parsed, err := decodeValue(&d, 0)
	if err == nil {
		err = d.End()
	}
	if err == nil && parsed == Label(0) {
		err = errors.New("sensor: string names no label of the vocabulary")
	}
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// FromAny converts a dynamically-typed JSON value (bool, float64,
// json.Number, nil, or integer types produced by vendor payload decoders)
// into a Value. A string is no value: a label needs its feature, which
// LabelIn and the codec know.
func FromAny(raw any) (Value, error) {
	switch t := raw.(type) {
	case nil:
		return Value{}, nil
	case bool:
		return Bool(t), nil
	case float64:
		return Number(t), nil
	case int:
		return Number(float64(t)), nil
	case int64:
		return Number(float64(t)), nil
	case json.Number:
		f, err := t.Float64()
		if err != nil {
			return Value{}, fmt.Errorf("sensor: parse number %q: %w", t.String(), err)
		}
		return Number(f), nil
	default:
		return Value{}, fmt.Errorf("sensor: unsupported raw value type %T", raw)
	}
}
