package automation

import (
	"strings"
	"testing"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func testParser() *Parser { return NewParser(instr.BuiltinRegistry()) }

func snap(vals map[sensor.Feature]sensor.Value) sensor.Snapshot {
	s := sensor.NewSnapshot(time.Date(2021, 4, 1, 19, 0, 0, 0, time.UTC))
	for f, v := range vals {
		s.Set(f, v)
	}
	return s
}

func eveningSnap() sensor.Snapshot {
	return snap(map[sensor.Feature]sensor.Value{
		sensor.FeatOccupancy:  sensor.Bool(true),
		sensor.FeatHour:       sensor.Number(19),
		sensor.FeatSmoke:      sensor.Bool(false),
		sensor.FeatWeather:    sensor.Label(sensor.WeatherRain),
		sensor.FeatTempIndoor: sensor.Number(22),
		sensor.FeatDoorLock:   sensor.Label(sensor.LockLocked),
	})
}

func TestParseRuleRoundTrip(t *testing.T) {
	src := `WHEN occupancy == TRUE AND hour_of_day >= 18 THEN light.on @ light-1`
	r, err := testParser().ParseRule("evening", src)
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.Name != "evening" || r.Action.Op != "light.on" || r.Action.DeviceID != "light-1" {
		t.Errorf("rule = %+v", r)
	}
	ok, err := r.Condition.Eval(eveningSnap())
	if err != nil || !ok {
		t.Errorf("Eval = %v, %v; want true", ok, err)
	}
	// Rendered form re-parses to the same semantics.
	r2, err := testParser().ParseRule("evening", r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	ok2, err := r2.Condition.Eval(eveningSnap())
	if err != nil || ok2 != ok {
		t.Errorf("re-parsed rule diverges: %v, %v", ok2, err)
	}
}

func TestParseRuleWithArgs(t *testing.T) {
	src := `WHEN temperature_in > 28 THEN aircon.set_temp @ aircon-1 WITH target = 24, mode = "eco", fast = TRUE`
	r, err := testParser().ParseRule("cool", src)
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if r.Action.Args["target"] != 24.0 {
		t.Errorf("target = %v", r.Action.Args["target"])
	}
	if r.Action.Args["mode"] != "eco" {
		t.Errorf("mode = %v", r.Action.Args["mode"])
	}
	if r.Action.Args["fast"] != true {
		t.Errorf("fast = %v", r.Action.Args["fast"])
	}
}

func TestParseExprOperatorsAndPrecedence(t *testing.T) {
	s := eveningSnap()
	tests := []struct {
		src  string
		want bool
	}{
		{`hour_of_day > 18`, true},
		{`hour_of_day >= 19`, true},
		{`hour_of_day < 19`, false},
		{`hour_of_day <= 19`, true},
		{`hour_of_day == 19`, true},
		{`hour_of_day != 19`, false},
		{`smoke == FALSE`, true},
		{`NOT smoke == TRUE`, true},
		{`outdoor_weather == "rain"`, true},
		{`outdoor_weather != "snow"`, true},
		{`door_lock == locked`, true},
		// AND binds tighter than OR.
		{`smoke == TRUE AND occupancy == TRUE OR hour_of_day > 18`, true},
		{`smoke == TRUE OR occupancy == TRUE AND hour_of_day > 18`, true},
		{`(smoke == TRUE OR occupancy == TRUE) AND hour_of_day < 5`, false},
		{`NOT (smoke == TRUE OR water_leak == TRUE)`, false}, // water_leak absent -> error path below
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			e, err := testParser().ParseExpr(tt.src)
			if err != nil {
				t.Fatalf("ParseExpr: %v", err)
			}
			got, err := e.Eval(s)
			if strings.Contains(tt.src, "water_leak") {
				if err == nil {
					t.Fatal("want error for absent feature")
				}
				return
			}
			if err != nil {
				t.Fatalf("Eval: %v", err)
			}
			if got != tt.want {
				t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                       // empty
		`WHEN THEN light.on @ l`, // missing condition
		`WHEN bogus_feature == TRUE THEN light.on @ l`, // unknown feature
		`WHEN smoke == TRUE THEN warp.engage @ l`,      // unknown opcode
		`WHEN smoke == TRUE THEN light.on light-1`,     // missing @
		`WHEN smoke > TRUE THEN light.on @ l`,          // ordered op on bool
		`WHEN door_lock >= locked THEN light.on @ l`,   // ordered op on label
		`WHEN door_lock == ajar THEN light.on @ l`,     // label outside domain
		`WHEN smoke == TRUE THEN light.on @ l trailing`,
		`WHEN smoke == TRUE THEN light.on @ l WITH x`, // malformed args
		`WHEN (smoke == TRUE THEN light.on @ l`,       // unbalanced paren
		`WHEN smoke ~ TRUE THEN light.on @ l`,         // bad char
		`WHEN smoke == "unterminated THEN light.on @ l`,
	}
	for _, src := range bad {
		if _, err := testParser().ParseRule("r", src); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", src)
		}
	}
}

// TestParseLiteralOutsideVocabulary: a literal its feature does not admit
// is a parse error at rule load, by the vocabulary's one rule: a label
// under a bool or number feature, a number or boolean under a label
// feature, and a label of another feature's domain.
func TestParseLiteralOutsideVocabulary(t *testing.T) {
	for _, src := range []string{
		`motion == open`,
		`motion == "locked"`,
		`smoke == 1`,
		`temperature_in == TRUE`,
		`temperature_in > warm`,
		`door_lock == 1`,
		`outdoor_weather != FALSE`,
		`door_lock == sunny`,
		`time_bucket == rain`,
	} {
		if e, err := testParser().ParseRule("r", `WHEN `+src+` THEN light.on @ l`); err == nil {
			t.Errorf("ParseRule(%q) = %v, want a parse error", src, e.Condition)
		}
	}
	for _, src := range []string{`motion == TRUE`, `door_lock != unlocked`, `outdoor_weather == "snow"`, `time_bucket == evening`, `humidity >= 60`} {
		if _, err := testParser().ParseRule("r", `WHEN `+src+` THEN light.on @ l`); err != nil {
			t.Errorf("ParseRule(%q): %v", src, err)
		}
	}
}

func TestEvalTypeMismatch(t *testing.T) {
	e, err := testParser().ParseExpr(`temperature_in == 22`)
	if err != nil {
		t.Fatal(err)
	}
	s := snap(map[sensor.Feature]sensor.Value{sensor.FeatTempIndoor: sensor.Bool(true)})
	if _, err := e.Eval(s); err == nil {
		t.Error("want type-mismatch error")
	}
}

func TestLexNumbersAndStrings(t *testing.T) {
	toks, err := lex(`x >= -3.5 AND y == "hi there"`)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{tokIdent, tokOperator, tokNumber, tokKeyword, tokIdent, tokOperator, tokString, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[2].text != "-3.5" {
		t.Errorf("number token = %q", toks[2].text)
	}
	if toks[6].text != "hi there" {
		t.Errorf("string token = %q", toks[6].text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`a ! b`, `a == "open`, `#`, `x == -`} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}
