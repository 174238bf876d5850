package sensor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// The wire codec of the unified snapshot document
//
//	{"at": <RFC 3339 time>, "values": {<feature>: <bool | number | label | null>}}
//
// is a direct scanner and appender: decoding walks the bytes once and
// writes into the final value map, encoding appends into one buffer. It
// reproduces encoding/json's treatment of these two types exactly, so
// that switching from the nested encoding/json round trips it replaces
// changed neither what is accepted nor a single encoded byte:
//
//   - decoding accepts only valid JSON (surrounding whitespace allowed,
//     at most maxNesting open containers, no trailing bytes) whose top
//     level is an object or null; field names match case-insensitively,
//     unknown fields are validated and skipped, a repeated "values"
//     object merges into the earlier one and "values":null resets it;
//   - "at" goes through time.Time's own UnmarshalJSON, so it receives
//     the raw bytes encoding/json would pass it;
//   - a value is a boolean, a number that parses as a float64, a string
//     or null (an absent Value); an object or array is an error;
//   - strings with escapes or invalid UTF-8 are unquoted by
//     encoding/json itself, and so are encoded strings that need any
//     escaping; plain strings are read and written as they stand;
//   - encoding sorts the features, formats numbers as encoding/json does
//     and fails on NaN, ±Inf and times that are not valid RFC 3339.
//
// Feature names and labels from the vocabulary are interned, so decoding
// a vocabulary scene allocates only its value map. The encoding/json
// codec survives in the package tests as the differential reference.

// maxNesting is encoding/json's bound on open objects and arrays.
const maxNesting = 10000

// fieldAt and fieldValues are the snapshot's two field names.
var (
	fieldAt     = []byte("at")
	fieldValues = []byte("values")
)

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

// decoder is a cursor over one JSON document.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("sensor: invalid JSON at offset %d: "+format, append([]any{d.off}, args...)...)
}

// next skips whitespace and returns the byte under the cursor, or 0 at
// the end of the input.
func (d *decoder) next() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes c, the next byte after whitespace.
func (d *decoder) expect(c byte) error {
	if d.next() != c {
		return d.errorf("want %q", c)
	}
	d.off++
	return nil
}

// end requires that only whitespace follows the cursor.
func (d *decoder) end() error {
	if d.next(); d.off < len(d.data) {
		return d.errorf("trailing data")
	}
	return nil
}

// literal consumes lit (true, false or null) at the cursor.
func (d *decoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.errorf("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// number consumes one number in JSON's grammar and returns its text.
func (d *decoder) number() ([]byte, error) {
	data, i := d.data, d.off
	digits := func() bool {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if i == len(data) || data[i] < '1' || data[i] > '9' || !digits() {
		return nil, d.errorf("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil, d.errorf("invalid number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, d.errorf("invalid number")
		}
	}
	text := data[d.off:i]
	d.off = i
	return text, nil
}

// str consumes the string at the cursor, validating its escapes, and
// returns its contents between the quotes. plain reports that the
// contents are the decoded string as they stand: no escapes and valid
// UTF-8, the case in which encoding/json also uses them unchanged.
func (d *decoder) str() (raw []byte, plain bool, err error) {
	data := d.data
	start := d.off + 1
	plain, ascii := true, true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			raw = data[start:i]
			if plain && !ascii {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			if i+1 == len(data) {
				return nil, false, d.errorf("unterminated string")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || !isHex4(data[i+2:i+6]) {
					return nil, false, d.errorf("invalid \\u escape")
				}
				i += 6
			default:
				return nil, false, d.errorf("invalid escape")
			}
		case c < 0x20:
			return nil, false, d.errorf("control character in string")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	return nil, false, d.errorf("unterminated string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// unquoted consumes the string at the cursor and returns it decoded. A
// plain string is returned in place; any other is unquoted by
// encoding/json.
func (d *decoder) unquoted() ([]byte, error) {
	quoted := d.data[d.off:]
	raw, plain, err := d.str()
	if err != nil || plain {
		return raw, err
	}
	var s string
	if err := json.Unmarshal(quoted[:len(raw)+2], &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// intern returns the canonical copy of b from m, or a new string when b
// is not in the vocabulary.
func intern[S ~string](m map[string]S, b []byte) S {
	if s, ok := m[string(b)]; ok {
		return s
	}
	return S(b)
}

// value consumes one feature value at the cursor.
func (d *decoder) value() (Value, error) {
	switch d.next() {
	case '"':
		b, err := d.unquoted()
		return Label(intern(internedLabels, b)), err
	case 't':
		return Bool(true), d.literal("true")
	case 'f':
		return Bool(false), d.literal("false")
	case 'n':
		return Value{}, d.literal("null")
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		text, err := d.number()
		if err != nil {
			return Value{}, err
		}
		n, err := strconv.ParseFloat(string(text), 64)
		if err != nil {
			return Value{}, fmt.Errorf("sensor: number %s: %w", text, err)
		}
		return Number(n), nil
	default:
		return Value{}, d.errorf("want a boolean, number, string or null")
	}
}

// skip validates and consumes the value at the cursor, which sits inside
// depth open containers.
func (d *decoder) skip(depth int) error {
	switch d.next() {
	case '{', '[':
		if depth == maxNesting {
			return d.errorf("exceeded max depth %d", maxNesting)
		}
		if d.data[d.off] == '{' {
			return d.object(func([]byte) error { return d.skip(depth + 1) })
		}
		return d.array(depth + 1)
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

// array validates and consumes the array at the cursor, the depth-th
// open container.
func (d *decoder) array(depth int) error {
	d.off++
	if d.next() == ']' {
		d.off++
		return nil
	}
	for {
		if err := d.skip(depth); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.off++
			return nil
		default:
			return d.errorf("want ',' or ']'")
		}
	}
}

// object consumes the object at the cursor. For each field it calls
// member with the decoded field name and the cursor on the field's value,
// which member must consume.
func (d *decoder) object(member func(name []byte) error) error {
	d.off++
	if d.next() == '}' {
		d.off++
		return nil
	}
	for {
		if d.next() != '"' {
			return d.errorf("want a field name")
		}
		name, err := d.unquoted()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		d.next()
		if err := member(name); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.errorf("want ',' or '}'")
		}
	}
}

// decodeSnapshot decodes one snapshot document.
func decodeSnapshot(data []byte) (time.Time, map[Feature]Value, error) {
	d := decoder{data: data}
	var at time.Time
	var vals map[Feature]Value
	var err error
	switch d.next() {
	case 'n':
		err = d.literal("null")
	case '{':
		err = d.object(func(name []byte) error {
			switch {
			case bytes.EqualFold(name, fieldAt):
				from := d.off
				if err := d.skip(1); err != nil {
					return err
				}
				return at.UnmarshalJSON(d.data[from:d.off])
			case bytes.EqualFold(name, fieldValues):
				return d.values(&vals)
			default:
				return d.skip(1)
			}
		})
	default:
		err = d.errorf("want a snapshot object")
	}
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return time.Time{}, nil, err
	}
	if vals == nil {
		vals = make(map[Feature]Value)
	}
	return at, vals, nil
}

// values consumes a "values" field: null empties the map, an object
// merges its features into it.
func (d *decoder) values(vals *map[Feature]Value) error {
	switch d.next() {
	case 'n':
		*vals = nil
		return d.literal("null")
	case '{':
	default:
		return d.errorf("values: want an object or null")
	}
	// Buffer the features so the map is made once at its final size.
	var buf [32]entry
	n := 0
	err := d.object(func(name []byte) error {
		v, err := d.value()
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

// encodeSnapshot returns the snapshot's wire form, built in one buffer
// sized up front.
func encodeSnapshot(s Snapshot) ([]byte, error) {
	var buf [32]entry
	es := buf[:0]
	size := len(`{"at":"","values":{}}`) + len(time.RFC3339Nano)
	for f, v := range s.Values {
		es = append(es, entry{f, v})
		size += len(f) + len(`"":,`) + valueSizeHint(v)
	}
	slices.SortFunc(es, func(x, y entry) int { return strings.Compare(string(x.f), string(y.f)) })
	b := make([]byte, 0, size)
	b = append(b, `{"at":`...)
	b, err := appendTime(b, s.At)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"values":{`...)
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, string(e.f))
		b = append(b, ':')
		if b, err = appendValue(b, e.v); err != nil {
			return nil, err
		}
	}
	return append(b, "}}"...), nil
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
		return appendFloat(b, v.n)
	case TypeLabel:
		return appendString(b, v.s), nil
	default:
		return append(b, "null"...), nil
	}
}

// appendFloat formats f as encoding/json does: the shortest decimal that
// round-trips, in exponent form below 1e-6 and from 1e21 on, with a
// single-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("sensor: unsupported number %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. A string that needs any
// escaping goes through encoding/json, which escapes control characters,
// quotes, backslashes, <, > and &, U+2028 and U+2029, and replaces
// invalid UTF-8.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendTime appends t as a quoted RFC 3339 time with nanoseconds,
// rejecting what time.Time's MarshalJSON rejects: a year outside
// [0,9999] or a zone offset of 24 hours or more.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return nil, errors.New("sensor: snapshot time: year outside of range [0,9999]")
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		zone := b[len(b)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(zone[0]-'0')+(zone[1]-'0') >= 24 {
			return nil, errors.New("sensor: snapshot time: timezone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}
