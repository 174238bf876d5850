package sensor

import (
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"iotsid/internal/jsonwire"
)

// The wire codec of the unified snapshot document
//
//	{"at": <RFC 3339 time>, "values": {<feature>: <bool | number | label | null>}}
//
// is built on the jsonwire scanner and appenders: decoding walks the
// bytes once, reading each feature name through the vocabulary into a
// stack array indexed by ordinal, then copies the present features, in
// ordinal order, into the snapshot's exactly sized value set; encoding
// walks the already sorted entries and appends into one buffer. It
// reproduces encoding/json's treatment of these two types exactly, so
// that switching from the nested encoding/json round trips it replaced
// changed neither what is accepted nor a single encoded byte:
//
//   - a document is an object or null; field names match as encoding/json
//     matches them, unknown fields are validated and skipped, a repeated
//     "values" object merges into the earlier one, a repeated feature's
//     last value wins and "values":null resets them;
//   - "at" goes through time.Time's own UnmarshalJSON, so it receives
//     the raw bytes encoding/json would pass it;
//   - a value is a boolean, a number that parses as a float64, a string
//     or null (an absent Value); an object or array is an error;
//   - encoding writes the features in sorted order, formats numbers as
//     encoding/json does and fails on NaN, ±Inf and times that are not valid RFC 3339.
//
// The vocabulary is closed: a document whose values name a feature
// outside it decodes to an *UnknownFeatureError, returned only once the
// whole document is consumed and found well formed, so a caller decoding
// a larger document can reject the one scene and go on.
//
// Snapshot.DecodeJSON and Snapshot.AppendJSON are the entry points for a
// codec that carries scenes inside a larger document: they decode at the
// caller's cursor and append to the caller's buffer. Labels from the
// vocabulary are interned, so decoding a vocabulary scene allocates only
// its value set: the set and its entries. The encoding/json codec
// survives in the package tests as the differential reference.

// snapshotFields are the snapshot's two field names, "at" and "values".
var snapshotFields = []string{"at", "values"}

// internedLabels maps the vocabulary's label domains to their canonical
// strings, so a decoded vocabulary label shares the constant instead of
// allocating a copy.
var internedLabels = func() map[string]string {
	labels := make(map[string]string)
	for _, d := range vocabulary {
		for _, l := range d.Labels {
			labels[l] = l
		}
	}
	return labels
}()

// quotedNames holds each feature's name as an encoded JSON object key.
var quotedNames = func() (q [FeatureLimit]string) {
	for _, d := range vocabulary {
		q[d.Feature] = string(jsonwire.AppendString(nil, d.Name)) + ":"
	}
	return q
}()

// intern returns the canonical copy of b from m, or a new string when b
// is not in the vocabulary.
func intern(m map[string]string, b []byte) string {
	if s, ok := m[string(b)]; ok {
		return s
	}
	return string(b)
}

// decodeValue consumes one feature value at the cursor.
func decodeValue(d *jsonwire.Decoder) (Value, error) {
	switch d.Next() {
	case '"':
		b, err := d.Unquoted()
		return Label(intern(internedLabels, b)), err
	case 't':
		return Bool(true), d.Literal("true")
	case 'f':
		return Bool(false), d.Literal("false")
	case 'n':
		return Value{}, d.Literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		text, err := d.Number()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return Value{}, fmt.Errorf("sensor: number %s: %w", text, err)
		}
		return Number(n), nil
	default:
		return Value{}, d.Errorf("want a boolean, number, string or null")
	}
}

// DecodeJSON decodes the snapshot document at d's cursor and consumes
// it, as UnmarshalJSON decodes a whole document: on success it replaces
// s (null gives the zero time and no values), on error it leaves s
// unchanged. The decoded values are s's own: nothing it stores aliases
// the document or the snapshot s held before. A well-formed document
// whose values name a feature outside the vocabulary is consumed and
// reported as an *UnknownFeatureError.
func (s *Snapshot) DecodeJSON(d *jsonwire.Decoder) error {
	var at time.Time
	var sc scene
	var err error
	switch d.Next() {
	case 'n':
		err = d.Literal("null")
	case '{':
		err = d.Object(func(name []byte) error {
			switch jsonwire.Field(name, snapshotFields) {
			case 0:
				raw, err := d.Raw()
				if err != nil {
					return err
				}
				return at.UnmarshalJSON(raw)
			case 1:
				return sc.decodeValues(d)
			default:
				return d.Skip()
			}
		})
	default:
		err = d.Errorf("want a snapshot object")
	}
	if err != nil {
		return err
	}
	if sc.unknown != nil {
		return sc.unknown
	}
	s.At, s.vals = at, sc.valueSet()
	return nil
}

// A scene's presence mask has a bit per ordinal.
var _ [32 - FeatureLimit]struct{}

// scene collects a document's values by ordinal: a repeated feature
// overwrites the earlier value, so a document of any length holds at most
// NumFeatures values and needs no sorting.
type scene struct {
	vals    [FeatureLimit]Value
	present uint32 // bit f set when vals[f] holds a value
	// unknown names the first feature outside the vocabulary among the
	// values read since the last reset; nil when there is none.
	unknown *UnknownFeatureError
}

// decodeValues consumes a "values" field: null drops the values read so
// far, an object adds its values to them.
func (sc *scene) decodeValues(d *jsonwire.Decoder) error {
	switch d.Next() {
	case 'n':
		sc.present, sc.unknown = 0, nil
		return d.Literal("null")
	case '{':
	default:
		return d.Errorf("values: want an object or null")
	}
	return d.Object(func(name []byte) error {
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		f, ok := parseFeature(name)
		switch {
		case ok:
			sc.vals[f] = v
			sc.present |= 1 << f
		case sc.unknown == nil:
			sc.unknown = &UnknownFeatureError{Name: string(name)}
		}
		return nil
	})
}

// valueSet copies the present values, in ordinal order, into an exactly
// sized value set.
func (sc *scene) valueSet() *valueSet {
	es := make([]entry, 0, bits.OnesCount32(sc.present))
	for m := sc.present; m != 0; m &= m - 1 {
		f := Feature(bits.TrailingZeros32(m))
		es = append(es, newEntry(f, sc.vals[f]))
	}
	return &valueSet{es: es}
}

// AppendJSON appends the snapshot's wire form, the document MarshalJSON
// returns, to b.
func (s Snapshot) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"at":`...)
	b, err := jsonwire.AppendTime(b, s.At)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"values":{`...)
	for i := range s.entries() {
		e := &s.vals.es[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, quotedNames[e.f]...)
		if b, err = appendValue(b, e.value()); err != nil {
			return nil, err
		}
	}
	return append(b, "}}"...), nil
}

// sizeHint bounds the snapshot's encoded length, escapes aside.
func (s Snapshot) sizeHint() int {
	size := len(`{"at":"","values":{}}`) + len(time.RFC3339Nano)
	for i := range s.entries() {
		e := &s.vals.es[i]
		size += len(quotedNames[e.f]) + len(`,`) + valueSizeHint(e.value())
	}
	return size
}

// valueSizeHint bounds the encoded length of v, escapes aside.
func valueSizeHint(v Value) int {
	if v.typ == TypeLabel {
		return len(v.s) + len(`""`)
	}
	return len("-0.0000012345678901234567") // the longest float encoding
}

// appendValue appends v as its natural JSON type; an absent value is null.
func appendValue(b []byte, v Value) ([]byte, error) {
	switch v.typ {
	case TypeBool:
		return strconv.AppendBool(b, v.b), nil
	case TypeNumber:
		return jsonwire.AppendFloat(b, v.n)
	case TypeLabel:
		return jsonwire.AppendString(b, v.s), nil
	default:
		return append(b, "null"...), nil
	}
}
