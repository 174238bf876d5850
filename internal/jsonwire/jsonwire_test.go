package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// validCases are documents the Decoder must accept or reject exactly as
// json.Valid does.
var validCases = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e+3`, `-2E-7`, `"x"`, `[]`, `{}`,
	` { "a" : [ 1 , "b" , null , true , false , { } , [ ] ] } `,
	`{"a":{"b":{"c":[1,2,{"d":"é\n\"\\\/\b\f\r\t"}]}}}`,
	"\"k\xff\xfe\"", `"\ud800"`, `"😀 é"`,
	``, ` `, `nul`, `nulL`, `tru`, `fals`, `01`, `-`, `-a`, `1.`, `.5`, `+1`, `1e`, `1e+`,
	`"\q"`, `"\u12"`, `"\u12g4"`, "\"a\x01\"", `"abc`, `"\`,
	`[1,]`, `[1 2]`, `{"a":1,}`, `{"a" 1}`, `{1:2}`, `{"a":1 "b":2}`, `[`, `{`, `{"a":`,
	`{} {}`, `null x`, `[]]`,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"":`, 10000) + `0` + strings.Repeat("}", 10000),
	strings.Repeat(`{"":`, 10001) + `0` + strings.Repeat("}", 10001),
}

// valid reports whether the Decoder accepts data as one JSON document.
func valid(data []byte) bool {
	d := NewDecoder(data)
	return d.Skip() == nil && d.End() == nil
}

func TestSkipMatchesValid(t *testing.T) {
	for _, c := range validCases {
		if got, want := valid([]byte(c)), json.Valid([]byte(c)); got != want {
			t.Errorf("valid(%.40q) = %v, json.Valid = %v", c, got, want)
		}
	}
}

// FuzzSkip holds Skip and End to json.Valid on arbitrary bytes.
func FuzzSkip(f *testing.F) {
	for _, c := range validCases {
		if len(c) < 1<<10 {
			f.Add([]byte(c))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := valid(data), json.Valid(data); got != want {
			t.Fatalf("valid(%q) = %v, json.Valid = %v", data, got, want)
		}
	})
}

// TestNestingCountsFromTop pins that the depth bound counts the
// containers the cursor is already inside, not only those below it.
func TestNestingCountsFromTop(t *testing.T) {
	doc := []byte(strings.Repeat("[", 9999) + "[[]]" + strings.Repeat("]", 9999))
	d := NewDecoder(doc)
	depth := 0
	var enter func() error
	enter = func() error {
		if depth++; depth < 9999 {
			return d.Array(enter)
		}
		return d.Skip() // at depth 9999, [[]] opens the 10001st
	}
	if err := d.Array(enter); err == nil {
		t.Fatal("a 10001-deep document decoded")
	}
}

func TestTextAndUnquoted(t *testing.T) {
	for _, c := range []string{`"plain"`, `""`, `"é😀"`, `"escé\n\"\\"`, "\"bad\xff\"", `"\ud800x"`} {
		var want string
		if err := json.Unmarshal([]byte(c), &want); err != nil {
			t.Fatal(err)
		}
		buf := []byte(c)
		d := NewDecoder(buf)
		got, err := d.Text()
		if err != nil || got != want || d.Offset() != len(buf) {
			t.Fatalf("Text(%q) = %q, %v at %d; want %q", c, got, err, d.Offset(), want)
		}
		d = NewDecoder(buf)
		raw, err := d.Unquoted()
		if err != nil || string(raw) != want {
			t.Fatalf("Unquoted(%q) = %q, %v; want %q", c, raw, err, want)
		}
		for i := range buf {
			buf[i] = 'X'
		}
		if got != want {
			t.Fatalf("Text(%q) aliased its input: now %q", c, got)
		}
	}
	d := NewDecoder([]byte(`"\q"`))
	if _, err := d.Text(); err == nil {
		t.Fatal("Text accepted an invalid escape")
	}
}

func TestRawAndNumber(t *testing.T) {
	d := NewDecoder([]byte(` [ 1 , {"a":-2.5e3} ] x`))
	raw, err := d.Raw()
	if err != nil || string(raw) != `[ 1 , {"a":-2.5e3} ]` {
		t.Fatalf("Raw = %q, %v", raw, err)
	}
	if err := d.End(); err == nil {
		t.Fatal("End accepted trailing data")
	}
	d = NewDecoder([]byte(`-0.5e-7,`))
	if n, err := d.Number(); err != nil || string(n) != `-0.5e-7` {
		t.Fatalf("Number = %q, %v", n, err)
	}
}

func TestField(t *testing.T) {
	fields := []string{"items", "device_id", "kelvin"}
	for _, c := range []struct {
		name string
		want int
	}{
		{"items", 0}, {"ITEMS", 0}, {"itemſ", 0}, {"iTeMs", 0}, {"device_id", 1}, {"DEVICE_ID", 1},
		{"\u212aelvin", 2}, {"KELVIN", 2}, // the Kelvin sign folds to k
		{"İtems", -1}, {"ıtems", -1}, {"item", -1}, {"items ", -1}, {"", -1}, {"device-id", -1},
	} {
		if got := Field([]byte(c.name), fields); got != c.want {
			t.Errorf("Field(%q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAppendersMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", "<tag>&", "q\"b\\", "ctl\x00\x1f\n", "k\xff", "  ", "é😀"} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte(">"), s); !bytes.Equal(got, append([]byte(">"), want...)) {
			t.Errorf("AppendString(%q) = %s, want >%s", s, got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 123456789, 5e-324, math.MaxFloat64, -2.5e-10} {
		want, _ := json.Marshal(f)
		if got, err := AppendFloat(nil, f); err != nil || !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, %v; want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded", f)
		}
	}
	for _, tm := range []time.Time{
		{},
		time.Date(2021, 3, 14, 15, 9, 26, 500, time.UTC),
		time.Date(2021, 3, 14, 15, 9, 26, 0, time.FixedZone("", -(7*3600+30*60))),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("far", 24*3600)),
		time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("odd", 3600+17)),
	} {
		want, wantErr := json.Marshal(tm)
		got, gotErr := AppendTime(nil, tm)
		if (wantErr == nil) != (gotErr == nil) || wantErr == nil && !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, %v; want %s, %v", tm, got, gotErr, want, wantErr)
		}
	}
}
