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
//     encoding/json does, writes a label as its name and fails on NaN,
//     ±Inf, a LabelID outside the table and times that are not valid
//     RFC 3339.
//
// The vocabulary is closed, and one rule, Admits, decides what it holds:
// a value must have its feature's type, and a label must come from its
// feature's domain. It judges each feature's last value; a null passes as
// an absent value, which the ingest rule drops a push for. A document
// whose values name a feature outside the vocabulary, or give a feature a
// value it does not admit, decodes to a *VocabularyError, returned only
// once the whole document is consumed and found well formed, so a caller
// decoding a larger document can reject the one scene and go on.
//
// Snapshot.DecodeJSON and Snapshot.AppendJSON are the entry points for a
// codec that carries scenes inside a larger document: they decode at the
// caller's cursor and append to the caller's buffer. DecodeJSON writes
// into the snapshot's own value storage, so a caller that decodes scene
// after scene into one snapshot reuses its entries. A label decodes to
// its one-byte ordinal, so decoding a scene allocates nothing once the
// snapshot's entries have room for it, and only a value set and its
// entries the first time. The encoding/json codec survives in the package
// tests as the differential reference.

// snapshotFields are the snapshot's two field names, "at" and "values".
var snapshotFields = []string{"at", "values"}

// quotedNames holds each feature's name as an encoded JSON object key.
var quotedNames = func() (q [FeatureLimit]string) {
	for _, d := range vocabulary {
		q[d.Feature] = string(jsonwire.AppendString(nil, d.Name)) + ":"
	}
	return q
}()

// decodeValue consumes one value of feature f at the cursor. A string
// decodes to the label of f's domain it names, or of any domain when f is
// zero, and to Label(0), which no feature admits, when it names none.
func decodeValue(d *jsonwire.Decoder, f Feature) (Value, error) {
	switch d.Next() {
	case '"':
		b, err := d.Unquoted()
		return Label(parseLabel(f, b)), err
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
// s's time and values (null gives the zero time and no values), on error
// it leaves s unchanged. It writes the values into s's own value storage,
// as SetValues does: in place when s's entries have room, so copies of s
// see the new values, and into exactly sized new entries otherwise. The
// entries past the new values are zeroed, so nothing of the values s held
// before stays behind them, and nothing stored aliases the document. A
// well-formed document holding a feature or value outside the vocabulary
// is consumed and reported as a *VocabularyError.
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
	if e := sc.outside(); e != nil {
		return e
	}
	s.At = at
	sc.store(s)
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
	unknown *VocabularyError
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
		f, ok := parseFeature(name)
		v, err := decodeValue(d, f)
		switch {
		case err != nil:
			return err
		case ok:
			sc.vals[f] = v
			sc.present |= 1 << f
		case sc.unknown == nil:
			sc.unknown = &VocabularyError{Name: string(name)}
		}
		return nil
	})
}

// outside returns the error for the first feature or value outside the
// vocabulary among the values read: an unknown name, or a feature's last
// value that Admits refuses. A null passes as an absent value.
func (sc *scene) outside() *VocabularyError {
	if sc.unknown != nil {
		return sc.unknown
	}
	for m := sc.present; m != 0; m &= m - 1 {
		f := Feature(bits.TrailingZeros32(m))
		if v := sc.vals[f]; !v.IsZero() && !Admits(f, v) {
			return &VocabularyError{Name: f.String(), Type: v.typ}
		}
	}
	return nil
}

// store writes the present values, in ordinal order, into s's own value
// storage.
func (sc *scene) store(s *Snapshot) {
	es := s.own().rewrite(bits.OnesCount32(sc.present))
	for m := sc.present; m != 0; m &= m - 1 {
		f := Feature(bits.TrailingZeros32(m))
		es = append(es, newEntry(f, sc.vals[f]))
	}
	s.vals.es = es
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

// sizeHint bounds the snapshot's encoded length.
func (s Snapshot) sizeHint() int {
	size := len(`{"at":"","values":{}}`) + len(time.RFC3339Nano)
	for i := range s.entries() {
		e := &s.vals.es[i]
		size += len(quotedNames[e.f]) + len(`,`) + valueSizeHint(e.value())
	}
	return size
}

// valueSizeHint bounds the encoded length of v.
func valueSizeHint(v Value) int {
	if v.typ == TypeLabel {
		return len(v.label.String()) + len(`""`)
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
		if v.label == 0 || v.label >= labelLimit {
			return nil, fmt.Errorf("sensor: %v is outside the vocabulary", v.label)
		}
		return jsonwire.AppendString(b, labels[v.label].name), nil
	default:
		return append(b, "null"...), nil
	}
}
