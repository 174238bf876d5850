package sensor

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"
)

// The reference codec: the snapshot and value wire codec as it stood
// before the direct scanner replaced it, built from nested encoding/json
// round trips. It is copied verbatim, rebound to wrapper types so that
// encoding/json cannot reach the production methods through it, and
// serves as the differential oracle of FuzzSnapshotJSON and
// FuzzValueJSON. Nothing outside the tests calls it. Where the verbatim
// codec kept any string, the reference reads a string as the label it
// names, and holds each value to its feature's descriptor on its own.

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
		if v.label == 0 || int(v.label) >= len(labels) {
			return nil, fmt.Errorf("label %d outside the table", v.label)
		}
		return json.Marshal(labels[v.label].name)
	default:
		return []byte("null"), nil
	}
}

// UnmarshalJSON decodes a JSON boolean, number or string into the value.
// A string decodes to the label of that name, of any feature's domain,
// and to Label(0) when no label has it.
func (v *refValue) UnmarshalJSON(data []byte) error {
	var raw any
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if s, ok := raw.(string); ok {
		*v = refValue(Label(0))
		for l := range labels {
			if l > 0 && labels[l].name == s {
				*v = refValue(Label(LabelID(l)))
			}
		}
		return nil
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
// The vocabulary is closed: where the verbatim codec stored any name and
// value, a name outside the vocabulary, or a value that has not its
// feature's type or is a label outside the feature's domain, is a
// *VocabularyError. A null is an absent value.
func refUnmarshalSnapshot(s *Snapshot, data []byte) error {
	var raw refSnapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	decoded := NewSnapshot(raw.At)
	for k, rv := range raw.Values {
		f, ok := ParseFeature(k)
		if !ok {
			return &VocabularyError{Name: k}
		}
		v, d := Value(rv), MustDescribe(f)
		if !v.IsZero() && (v.typ != d.Type || v.typ == TypeLabel && !slices.Contains(d.Labels, v.label)) {
			return &VocabularyError{Name: k, Type: v.typ}
		}
		decoded.Set(f, v)
	}
	*s = decoded
	return nil
}
