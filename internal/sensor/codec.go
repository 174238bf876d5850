package sensor

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"iotsid/internal/jsonwire"
)

// The wire codec of the unified snapshot document
//
//	{"at": <RFC 3339 time>, "values": {<feature>: <bool | number | label | null>}}
//
// is built on the jsonwire scanner and appenders: decoding walks the
// bytes once and writes into the final value map, encoding appends into
// one buffer. It reproduces encoding/json's treatment of these two types
// exactly, so that switching from the nested encoding/json round trips it
// replaced changed neither what is accepted nor a single encoded byte:
//
//   - a document is an object or null; field names match as encoding/json
//     matches them, unknown fields are validated and skipped, a repeated
//     "values" object merges into the earlier one and "values":null
//     resets it;
//   - "at" goes through time.Time's own UnmarshalJSON, so it receives
//     the raw bytes encoding/json would pass it;
//   - a value is a boolean, a number that parses as a float64, a string
//     or null (an absent Value); an object or array is an error;
//   - encoding sorts the features, formats numbers as encoding/json does
//     and fails on NaN, ±Inf and times that are not valid RFC 3339.
//
// Snapshot.DecodeJSON and Snapshot.AppendJSON are the entry points for a
// codec that carries scenes inside a larger document: they decode at the
// caller's cursor and append to the caller's buffer. Feature names and
// labels from the vocabulary are interned, so decoding a vocabulary scene
// allocates only its value map. The encoding/json codec survives in the
// package tests as the differential reference.

// snapshotFields are the snapshot's two field names, "at" and "values".
var snapshotFields = []string{"at", "values"}

// internedFeatures and internedLabels map the vocabulary's feature names
// and label domains to their canonical strings, so a decoded vocabulary
// key or label shares the constant instead of allocating a copy.
var internedFeatures, internedLabels = internTables()

func internTables() (map[string]Feature, map[string]string) {
	feats := make(map[string]Feature, len(vocabulary))
	labels := make(map[string]string)
	for _, d := range vocabulary {
		feats[string(d.Feature)] = d.Feature
		for _, l := range d.Labels {
			labels[l] = l
		}
	}
	return feats, labels
}

// entry is one feature value, buffered while a values object is read
// and while an encoding sorts its features.
type entry struct {
	f Feature
	v Value
}

// intern returns the canonical copy of b from m, or a new string when b
// is not in the vocabulary.
func intern[S ~string](m map[string]S, b []byte) S {
	if s, ok := m[string(b)]; ok {
		return s
	}
	return S(b)
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
// s (null gives the zero time and an empty value map), on error it
// leaves s unchanged. Nothing it stores aliases the document.
func (s *Snapshot) DecodeJSON(d *jsonwire.Decoder) error {
	var at time.Time
	var vals map[Feature]Value
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
				return decodeValues(d, &vals)
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
	if vals == nil {
		vals = make(map[Feature]Value)
	}
	s.At, s.Values = at, vals
	return nil
}

// decodeValues consumes a "values" field: null empties the map, an
// object merges its features into it.
func decodeValues(d *jsonwire.Decoder, vals *map[Feature]Value) error {
	switch d.Next() {
	case 'n':
		*vals = nil
		return d.Literal("null")
	case '{':
	default:
		return d.Errorf("values: want an object or null")
	}
	// Buffer the features so the map is made once at its final size.
	var buf [32]entry
	n := 0
	err := d.Object(func(name []byte) error {
		v, err := decodeValue(d)
		if err != nil {
			return err
		}
		if n == len(buf) {
			insert(vals, buf[:n])
			n = 0
		}
		buf[n] = entry{intern(internedFeatures, name), v}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	insert(vals, buf[:n])
	return nil
}

// insert stores es into *vals in order, making the map on first use.
func insert(vals *map[Feature]Value, es []entry) {
	if *vals == nil {
		*vals = make(map[Feature]Value, len(es))
	}
	for _, e := range es {
		(*vals)[e.f] = e.v
	}
}

// AppendJSON appends the snapshot's wire form, the document MarshalJSON
// returns, to b.
func (s Snapshot) AppendJSON(b []byte) ([]byte, error) {
	var buf [32]entry
	es := buf[:0]
	for f, v := range s.Values {
		es = append(es, entry{f, v})
	}
	slices.SortFunc(es, func(x, y entry) int { return strings.Compare(string(x.f), string(y.f)) })
	b = append(b, `{"at":`...)
	b, err := jsonwire.AppendTime(b, s.At)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"values":{`...)
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwire.AppendString(b, string(e.f))
		b = append(b, ':')
		if b, err = appendValue(b, e.v); err != nil {
			return nil, err
		}
	}
	return append(b, "}}"...), nil
}

// sizeHint bounds the snapshot's encoded length, escapes aside.
func (s Snapshot) sizeHint() int {
	size := len(`{"at":"","values":{}}`) + len(time.RFC3339Nano)
	for f, v := range s.Values {
		size += len(f) + len(`"":,`) + valueSizeHint(v)
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
