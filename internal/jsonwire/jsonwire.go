// Package jsonwire is the direct JSON scanner and appenders behind the
// repository's hand-written wire codecs: the sensor snapshot document and
// the fleet batch envelope around it.
//
// Decoding walks the bytes once with a Decoder cursor; encoding appends
// into the caller's buffer. Both reproduce encoding/json's treatment of
// the values they handle exactly, so a codec built on them can be held
// byte for byte to the encoding/json codec it replaces:
//
//   - the Decoder accepts only valid JSON, with at most MaxNesting open
//     containers counted from the top of the document;
//   - Field matches a field name as encoding/json matches a struct
//     field: exactly, or else case-insensitively;
//   - strings with escapes or invalid UTF-8 are unquoted by encoding/json
//     itself, and so are encoded strings that need any escaping; plain
//     strings are read and written as they stand;
//   - AppendFloat and AppendTime format as encoding/json does and fail
//     where it fails.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// MaxNesting is encoding/json's bound on open objects and arrays.
const MaxNesting = 10000

// Decoder is a cursor over one JSON document.
type Decoder struct {
	data  []byte
	off   int
	depth int // open objects and arrays at the cursor
}

// NewDecoder returns a cursor at the start of data.
func NewDecoder(data []byte) Decoder {
	return Decoder{data: data}
}

// Offset is the cursor's position in the document.
func (d *Decoder) Offset() int {
	return d.off
}

// Errorf returns a syntax or type error at the cursor.
func (d *Decoder) Errorf(format string, args ...any) error {
	return fmt.Errorf("jsonwire: invalid JSON at offset %d: "+format, append([]any{d.off}, args...)...)
}

// Next skips whitespace and returns the byte under the cursor, or 0 at
// the end of the input.
func (d *Decoder) Next() byte {
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
func (d *Decoder) expect(c byte) error {
	if d.Next() != c {
		return d.Errorf("want %q", c)
	}
	d.off++
	return nil
}

// End requires that only whitespace follows the cursor.
func (d *Decoder) End() error {
	if d.Next(); d.off < len(d.data) {
		return d.Errorf("trailing data")
	}
	return nil
}

// Literal consumes lit (true, false or null) at the cursor.
func (d *Decoder) Literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.Errorf("invalid literal")
	}
	d.off += len(lit)
	return nil
}

// Number consumes one number in JSON's grammar and returns its text.
func (d *Decoder) Number() ([]byte, error) {
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
		return nil, d.Errorf("invalid number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil, d.Errorf("invalid number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, d.Errorf("invalid number")
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
func (d *Decoder) str() (raw []byte, plain bool, err error) {
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
				return nil, false, d.Errorf("unterminated string")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || !isHex4(data[i+2:i+6]) {
					return nil, false, d.Errorf("invalid \\u escape")
				}
				i += 6
			default:
				return nil, false, d.Errorf("invalid escape")
			}
		case c < 0x20:
			return nil, false, d.Errorf("control character in string")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	return nil, false, d.Errorf("unterminated string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// Unquoted consumes the string at the cursor and returns it decoded. A
// plain string is returned in place, aliasing the document; any other
// is unquoted by encoding/json into a new slice.
func (d *Decoder) Unquoted() ([]byte, error) {
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

// Text consumes the string at the cursor and returns it decoded, in
// memory of its own: nothing it returns aliases the document.
func (d *Decoder) Text() (string, error) {
	quoted := d.data[d.off:]
	raw, plain, err := d.str()
	if err != nil || plain {
		return string(raw), err
	}
	var s string
	err = json.Unmarshal(quoted[:len(raw)+2], &s)
	return s, err
}

// Skip validates and consumes the value at the cursor.
func (d *Decoder) Skip() error {
	switch d.Next() {
	case '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case '[':
		return d.Array(d.Skip)
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.Literal("true")
	case 'f':
		return d.Literal("false")
	case 'n':
		return d.Literal("null")
	default:
		_, err := d.Number()
		return err
	}
}

// Raw validates and consumes the value at the cursor and returns its
// bytes, which alias the document.
func (d *Decoder) Raw() ([]byte, error) {
	d.Next()
	from := d.off
	err := d.Skip()
	return d.data[from:d.off], err
}

// open enters the object or array at the cursor.
func (d *Decoder) open() error {
	if d.depth == MaxNesting {
		return d.Errorf("exceeded max depth %d", MaxNesting)
	}
	d.depth++
	d.off++
	return nil
}

// Array consumes the array at the cursor. For each element it calls elem
// with the cursor on the element's first byte; elem must consume it.
func (d *Decoder) Array(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.Next() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for {
		d.Next()
		if err := elem(); err != nil {
			return err
		}
		switch d.Next() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.Errorf("want ',' or ']'")
		}
	}
}

// Object consumes the object at the cursor. For each field it calls
// member with the decoded field name, which may alias the document, and
// the cursor on the field's value, which member must consume.
func (d *Decoder) Object(member func(name []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.Next() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if d.Next() != '"' {
			return d.Errorf("want a field name")
		}
		name, err := d.Unquoted()
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		d.Next()
		if err := member(name); err != nil {
			return err
		}
		switch d.Next() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.Errorf("want ',' or '}'")
		}
	}
}

// Field returns the index of the field in fields that name selects, the
// way encoding/json selects a struct field: an exact match, or else a
// case-insensitive one under Unicode simple folding. It returns -1 when
// no field matches.
func Field(name []byte, fields []string) int {
	for i, f := range fields {
		if string(name) == f {
			return i
		}
	}
	for i, f := range fields {
		if bytes.EqualFold(name, []byte(f)) {
			return i
		}
	}
	return -1
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// on, with a single-digit negative exponent unpadded. NaN and the
// infinities have no JSON form and fail.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("jsonwire: unsupported number %v", f)
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

// AppendString appends s as a JSON string. A string that needs any
// escaping goes through encoding/json, which escapes control characters,
// quotes, backslashes, <, > and &, U+2028 and U+2029, and replaces
// invalid UTF-8.
func AppendString(b []byte, s string) []byte {
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

// AppendTime appends t as a quoted RFC 3339 time with nanoseconds,
// rejecting what time.Time's MarshalJSON rejects: a year outside
// [0,9999] or a zone offset of 24 hours or more.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return nil, errors.New("jsonwire: time: year outside of range [0,9999]")
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		zone := b[len(b)-len("07:00"):]
		if '0' <= c && c <= '9' || 10*(zone[0]-'0')+(zone[1]-'0') >= 24 {
			return nil, errors.New("jsonwire: time: timezone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}
