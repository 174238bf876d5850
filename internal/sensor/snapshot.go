package sensor

import (
	"fmt"
	"slices"
	"time"

	"iotsid/internal/jsonwire"
)

// Snapshot is the joint state of every sensor participating in a scene at
// one instant — the paper's "sensor context". Keys are features from the
// closed vocabulary, so a snapshot holds at most NumFeatures values.
//
// The values sit behind one pointer, so copies of a snapshot share its
// values: a Set or Delete through one copy is seen through every other.
// Clone and Merge return snapshots with values of their own. The zero
// Snapshot has no values yet; its first Set allocates them, so copies
// taken before that do not see it.
type Snapshot struct {
	At   time.Time
	vals *valueSet
}

// valueSet is a snapshot's values: entries sorted by feature, no feature
// twice. Sorted entries make lookups a binary search over one-byte keys
// and let the codec and Features walk them in wire order without sorting.
type valueSet struct{ es []entry }

// entry is one feature value: the feature's ordinal beside the value's
// fields, flattened so that the ordinal shares the type tag's word and an
// entry is 32 B, the size of a Value.
type entry struct {
	f   Feature
	typ FeatureType
	b   bool
	n   float64
	s   string
}

func newEntry(f Feature, v Value) entry {
	return entry{f: f, typ: v.typ, b: v.b, n: v.n, s: v.s}
}

func (e *entry) value() Value { return Value{typ: e.typ, b: e.b, n: e.n, s: e.s} }

// NewSnapshot creates an empty snapshot stamped at t.
func NewSnapshot(t time.Time) Snapshot { return NewSnapshotCap(t, 0) }

// NewSnapshotCap creates an empty snapshot stamped at t with room for n
// values, so a builder that knows its width sizes the values once.
func NewSnapshotCap(t time.Time, n int) Snapshot {
	return Snapshot{At: t, vals: &valueSet{es: make([]entry, 0, n)}}
}

// entries returns the sorted entries; nil for the zero Snapshot.
func (s Snapshot) entries() []entry {
	if s.vals == nil {
		return nil
	}
	return s.vals.es
}

// find returns the index of f in the sorted es, or the index it would be
// inserted at, and whether f is there.
func find(es []entry, f Feature) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].f < f {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(es) && es[lo].f == f
}

// Set stores a feature value, replacing any previous one. Set is safe on a
// zero-value Snapshot: it allocates the values on first use. It panics on
// a feature outside the vocabulary, a programming error: decoders reject
// unknown names before they become features.
func (s *Snapshot) Set(f Feature, v Value) {
	if !f.Valid() {
		panic(fmt.Sprintf("sensor: Set of %v, outside the vocabulary", f))
	}
	if s.vals == nil {
		s.vals = new(valueSet)
	}
	i, ok := find(s.vals.es, f)
	if ok {
		s.vals.es[i] = newEntry(f, v)
		return
	}
	s.vals.es = slices.Insert(s.vals.es, i, newEntry(f, v))
}

// Delete removes a feature; deleting an absent feature does nothing.
func (s *Snapshot) Delete(f Feature) {
	if i, ok := find(s.entries(), f); ok {
		s.vals.es = slices.Delete(s.vals.es, i, i+1)
	}
}

// Get returns the value of a feature and whether it is present.
func (s Snapshot) Get(f Feature) (Value, bool) {
	es := s.entries()
	i, ok := find(es, f)
	if !ok {
		return Value{}, false
	}
	return es[i].value(), true
}

// Len returns the number of features the snapshot carries.
func (s Snapshot) Len() int { return len(s.entries()) }

// Range calls fn for each feature and value in sorted feature order until
// fn returns false. fn must not Set or Delete on s or a copy of it.
func (s Snapshot) Range(fn func(Feature, Value) bool) {
	for i := range s.entries() {
		e := &s.vals.es[i]
		if !fn(e.f, e.value()) {
			return
		}
	}
}

// Cursor reads a snapshot's values in ascending feature order: one merge
// walk over the sorted entries, for a reader that wants several features
// and can ask for them in ordinal order.
type Cursor struct {
	es []entry
	i  int
}

// Cursor returns a cursor at the snapshot's first feature. The snapshot
// must not be Set or Deleted on while the cursor is in use.
func (s Snapshot) Cursor() Cursor { return Cursor{es: s.entries()} }

// Seek advances the cursor to f and returns its value and whether it is
// present. f must not be below any feature sought before.
func (c *Cursor) Seek(f Feature) (Value, bool) {
	for c.i < len(c.es) && c.es[c.i].f < f {
		c.i++
	}
	if c.i < len(c.es) && c.es[c.i].f == f {
		return c.es[c.i].value(), true
	}
	return Value{}, false
}

// Bool returns a boolean feature, defaulting to false when absent or not a
// boolean.
func (s Snapshot) Bool(f Feature) bool {
	v, _ := s.Get(f)
	b, _ := v.Bool()
	return b
}

// Number returns a numeric feature and whether it was present and numeric.
func (s Snapshot) Number(f Feature) (float64, bool) {
	v, ok := s.Get(f)
	if !ok {
		return 0, false
	}
	return v.Number()
}

// Clone copies the snapshot with values of its own.
func (s Snapshot) Clone() Snapshot {
	return Snapshot{At: s.At, vals: &valueSet{es: slices.Clone(s.entries())}}
}

// SetValues replaces s's values with a copy of o's, overwriting s's own
// entries in place when they have room, and keeps s.At. Copies of s see
// the new values.
func (s *Snapshot) SetValues(o Snapshot) {
	if s.vals == nil {
		s.vals = new(valueSet)
	}
	s.vals.es = append(s.vals.es[:0], o.entries()...)
}

// Merge overlays o onto a copy of s; o's values win on conflict, and the
// later timestamp is kept. The result has values of its own, sized
// exactly.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	a, b := s.entries(), o.entries()
	n := len(a) + len(b)
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].f < b[j].f:
			i++
		case a[i].f > b[j].f:
			j++
		default:
			n--
			i, j = i+1, j+1
		}
	}
	es := make([]entry, 0, n)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].f < b[j].f:
			es = append(es, a[i])
			i++
		case a[i].f > b[j].f:
			es = append(es, b[j])
			j++
		default:
			es = append(es, b[j])
			i, j = i+1, j+1
		}
	}
	es = append(append(es, a[i:]...), b[j:]...)
	out := Snapshot{At: s.At, vals: &valueSet{es: es}}
	if o.At.After(out.At) {
		out.At = o.At
	}
	return out
}

// Features lists the snapshot's features in sorted order.
func (s Snapshot) Features() []Feature {
	es := s.entries()
	out := make([]Feature, len(es))
	for i, e := range es {
		out[i] = e.f
	}
	return out
}

// MarshalJSON encodes the snapshot as {"at": ..., "values": {feature: value}},
// the unified JSON document the paper's collector hands to the feature
// memory. Features are sorted; see codec.go for the format's details.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	return s.AppendJSON(make([]byte, 0, s.sizeHint()))
}

// UnmarshalJSON decodes the wire form produced by MarshalJSON. On error
// the snapshot is left unchanged; a well-formed document naming a
// feature outside the vocabulary is an *UnknownFeatureError.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	d := jsonwire.NewDecoder(data)
	var decoded Snapshot
	err := decoded.DecodeJSON(&d)
	if _, unknown := err.(*UnknownFeatureError); err == nil || unknown {
		// The document was consumed: bytes after it are a syntax error,
		// which outranks an unknown feature.
		if endErr := d.End(); endErr != nil {
			return endErr
		}
	}
	if err != nil {
		return err
	}
	*s = decoded
	return nil
}

// Validate checks every value against its feature's descriptor: the value
// must be present, its type must match, and labels must come from the
// descriptor's domain.
func (s Snapshot) Validate() error {
	for i := range s.entries() {
		e := &s.vals.es[i]
		f, v, d := e.f, e.value(), vocabulary[e.f-1]
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
