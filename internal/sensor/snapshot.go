package sensor

import (
	"fmt"
	"sort"
	"time"

	"iotsid/internal/jsonwire"
)

// Reading is a single timestamped measurement from one physical sensor.
type Reading struct {
	SensorID string    `json:"sensor_id"`
	Kind     Kind      `json:"kind"`
	Feature  Feature   `json:"feature"`
	Value    Value     `json:"value"`
	At       time.Time `json:"at"`
}

// Snapshot is the joint state of every sensor participating in a scene at
// one instant — the paper's "sensor context". Keys are features from the
// shared vocabulary.
type Snapshot struct {
	At     time.Time
	Values map[Feature]Value
}

// NewSnapshot creates an empty snapshot stamped at t.
func NewSnapshot(t time.Time) Snapshot {
	return Snapshot{At: t, Values: make(map[Feature]Value)}
}

// Set stores a feature value, replacing any previous one. The value map is
// allocated lazily, so Set is safe on a zero-value Snapshot.
func (s *Snapshot) Set(f Feature, v Value) {
	if s.Values == nil {
		s.Values = make(map[Feature]Value)
	}
	s.Values[f] = v
}

// Get returns the value of a feature and whether it is present.
func (s Snapshot) Get(f Feature) (Value, bool) {
	v, ok := s.Values[f]
	return v, ok
}

// Bool returns a boolean feature, defaulting to false when absent or not a
// boolean.
func (s Snapshot) Bool(f Feature) bool {
	v, ok := s.Values[f]
	if !ok {
		return false
	}
	b, _ := v.Bool()
	return b
}

// Number returns a numeric feature and whether it was present and numeric.
func (s Snapshot) Number(f Feature) (float64, bool) {
	v, ok := s.Values[f]
	if !ok {
		return 0, false
	}
	return v.Number()
}

// LabelOr returns a label feature, or def when absent or not a label.
func (s Snapshot) LabelOr(f Feature, def string) string {
	v, ok := s.Values[f]
	if !ok {
		return def
	}
	l, ok := v.Label()
	if !ok {
		return def
	}
	return l
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	out := Snapshot{At: s.At, Values: make(map[Feature]Value, len(s.Values))}
	for k, v := range s.Values {
		out.Values[k] = v
	}
	return out
}

// Merge overlays o onto a copy of s; o's values win on conflict, and the
// later timestamp is kept.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := s.Clone()
	for k, v := range o.Values {
		out.Values[k] = v
	}
	if o.At.After(out.At) {
		out.At = o.At
	}
	return out
}

// Features lists the snapshot's features in deterministic (sorted) order.
func (s Snapshot) Features() []Feature {
	out := make([]Feature, 0, len(s.Values))
	for f := range s.Values {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarshalJSON encodes the snapshot as {"at": ..., "values": {feature: value}},
// the unified JSON document the paper's collector hands to the feature
// memory. Features are sorted; see codec.go for the format's details.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, s.sizeHint()))
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON. On error
// the snapshot is left unchanged.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDecoder(data)
	var decoded Snapshot
	if err := decoded.DecodeJSON(&d); err != nil {
		return err
	}
	if err := d.End(); err != nil {
		return err
	}
	*s = decoded
	return nil
}

// FromReadings folds a set of readings into a snapshot, keeping the newest
// reading per feature. The snapshot is stamped with the newest timestamp.
func FromReadings(readings []Reading) Snapshot {
	snap := NewSnapshot(time.Time{})
	newest := make(map[Feature]time.Time, len(readings))
	for _, r := range readings {
		if prev, ok := newest[r.Feature]; ok && !r.At.After(prev) {
			continue
		}
		newest[r.Feature] = r.At
		snap.Values[r.Feature] = r.Value
		if r.At.After(snap.At) {
			snap.At = r.At
		}
	}
	return snap
}

// Validate checks every value against the vocabulary: the feature must be
// known, the value type must match the descriptor, and labels must come from
// the descriptor's domain.
func (s Snapshot) Validate() error {
	for f, v := range s.Values {
		d, ok := Describe(f)
		if !ok {
			return fmt.Errorf("sensor: unknown feature %q in snapshot", f)
		}
		if v.IsZero() {
			return fmt.Errorf("sensor: absent value for feature %q", f)
		}
		if v.Type() != d.Type {
			return fmt.Errorf("sensor: feature %q has type %s, want %s", f, v.Type(), d.Type)
		}
		if d.Type == TypeLabel {
			lbl, _ := v.Label()
			if !contains(d.Labels, lbl) {
				return fmt.Errorf("sensor: feature %q label %q outside domain %v", f, lbl, d.Labels)
			}
		}
	}
	return nil
}

func contains(set []string, s string) bool {
	for _, e := range set {
		if e == s {
			return true
		}
	}
	return false
}
