package sensor

import (
	"encoding/json"
	"time"
)

// The reference codec: the snapshot and value wire codec as it stood
// before the direct scanner replaced it, built from nested encoding/json
// round trips. It is copied verbatim, rebound to wrapper types so that
// encoding/json cannot reach the production methods through it, and
// serves as the differential oracle of FuzzSnapshotJSON and
// FuzzValueJSON. Nothing outside the tests calls it.

// refValue carries a Value through the reference codec.
type refValue Value

// MarshalJSON encodes the value as its natural JSON type.
func (v refValue) MarshalJSON() ([]byte, error) {
	switch v.typ {
	case TypeBool:
		return json.Marshal(v.b)
	case TypeNumber:
		return json.Marshal(v.n)
	case TypeLabel:
		return json.Marshal(v.s)
	default:
		return []byte("null"), nil
	}
}

// UnmarshalJSON decodes a JSON boolean, number or string into the value.
func (v *refValue) UnmarshalJSON(data []byte) error {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	parsed, err := FromAny(raw)
	if err != nil {
		return err
	}
	*v = refValue(parsed)
	return nil
}

// refSnapshotJSON is the reference wire form of a snapshot.
type refSnapshotJSON struct {
	At     time.Time           `json:"at"`
	Values map[string]refValue `json:"values"`
}

// refMarshalSnapshot encodes s as {"at": ..., "values": {feature: value}}.
func refMarshalSnapshot(s Snapshot) ([]byte, error) {
	vals := make(map[string]refValue, s.Len())
	s.Range(func(f Feature, v Value) bool {
		vals[f.String()] = refValue(v)
		return true
	})
	return json.Marshal(refSnapshotJSON{At: s.At, Values: vals})
}

// refUnmarshalSnapshot decodes the wire form produced by refMarshalSnapshot.
// The vocabulary is closed: where the verbatim codec stored any name, a
// name outside the vocabulary is an *UnknownFeatureError.
func refUnmarshalSnapshot(s *Snapshot, data []byte) error {
	var raw refSnapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	decoded := NewSnapshot(raw.At)
	for k, v := range raw.Values {
		f, ok := ParseFeature(k)
		if !ok {
			return &UnknownFeatureError{Name: k}
		}
		decoded.Set(f, Value(v))
	}
	*s = decoded
	return nil
}
