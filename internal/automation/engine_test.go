package automation

import (
	"errors"
	"strings"
	"testing"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func boolSnap(smoke, occupied bool) sensor.Snapshot {
	return snap(map[sensor.Feature]sensor.Value{
		sensor.FeatSmoke:     sensor.Bool(smoke),
		sensor.FeatOccupancy: sensor.Bool(occupied),
	})
}

func TestEngineRisingEdgeSemantics(t *testing.T) {
	var executed []string
	e := NewEngine(instr.BuiltinRegistry(), func(in instr.Instruction) error {
		executed = append(executed, in.Op)
		return nil
	})
	if err := e.AddRuleText("vent", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		t.Fatalf("AddRuleText: %v", err)
	}

	// false -> nothing.
	if ev := e.Evaluate(boolSnap(false, true)); len(ev) != 0 {
		t.Fatalf("events on false condition: %v", ev)
	}
	// rising edge -> fires once.
	ev := e.Evaluate(boolSnap(true, true))
	if len(ev) != 1 || !ev[0].Allowed || ev[0].Op != "window.open" {
		t.Fatalf("rising edge events = %+v", ev)
	}
	// still true -> no refire.
	if ev := e.Evaluate(boolSnap(true, true)); len(ev) != 0 {
		t.Fatalf("level refire: %v", ev)
	}
	// falling then rising again -> fires again.
	e.Evaluate(boolSnap(false, true))
	if ev := e.Evaluate(boolSnap(true, true)); len(ev) != 1 {
		t.Fatalf("second rising edge events = %v", ev)
	}
	if len(executed) != 2 {
		t.Errorf("executed %v, want 2 dispatches", executed)
	}
}

func TestEngineInterceptorBlocks(t *testing.T) {
	var executed int
	e := NewEngine(instr.BuiltinRegistry(), func(in instr.Instruction) error {
		executed++
		return nil
	})
	if err := e.AddRuleText("vent", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}
	e.SetInterceptor(func(in instr.Instruction, ctx sensor.Snapshot) (bool, string) {
		if !ctx.Bool(sensor.FeatOccupancy) {
			return false, "nobody home: window.open rejected"
		}
		return true, "context legal"
	})

	ev := e.Evaluate(boolSnap(true, false))
	if len(ev) != 1 || ev[0].Allowed {
		t.Fatalf("interceptor should block: %+v", ev)
	}
	if ev[0].Reason == "" {
		t.Error("blocked event should carry a reason")
	}
	if executed != 0 {
		t.Error("blocked instruction must not execute")
	}

	e.ResetEdges()
	ev = e.Evaluate(boolSnap(true, true))
	if len(ev) != 1 || !ev[0].Allowed {
		t.Fatalf("interceptor should allow: %+v", ev)
	}
	if executed != 1 {
		t.Error("allowed instruction must execute")
	}
}

func TestEngineBrokenRuleIsIsolated(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), func(in instr.Instruction) error { return nil })
	// water_leak is absent from the snapshots below -> eval error.
	if err := e.AddRuleText("broken", `WHEN water_leak == TRUE THEN alarm.siren_on @ alarm-hub-1`); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRuleText("good", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}
	ev := e.Evaluate(boolSnap(true, true))
	if len(ev) != 2 {
		t.Fatalf("events = %+v", ev)
	}
	var sawErr, sawGood bool
	for _, x := range ev {
		if x.Rule == "broken" && x.Err != "" {
			sawErr = true
		}
		if x.Rule == "good" && x.Allowed {
			sawGood = true
		}
	}
	if !sawErr || !sawGood {
		t.Errorf("broken rule must error, good rule must fire: %+v", ev)
	}
}

func TestEngineExecutorErrorRecorded(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), func(in instr.Instruction) error {
		return errors.New("device offline")
	})
	if err := e.AddRuleText("vent", `WHEN smoke == TRUE THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}
	ev := e.Evaluate(boolSnap(true, true))
	if len(ev) != 1 || ev[0].Err != "device offline" || !ev[0].Allowed {
		t.Fatalf("events = %+v", ev)
	}
}

func TestAddRuleValidation(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), nil)
	if err := e.AddRule(Rule{Name: "", Condition: &Compare{}}); err == nil {
		t.Error("want error for empty name")
	}
	if err := e.AddRule(Rule{Name: "x"}); err == nil {
		t.Error("want error for nil condition")
	}
	cond, _ := testParser().ParseExpr(`smoke == TRUE`)
	if err := e.AddRule(Rule{Name: "x", Condition: cond, Action: Action{Op: "warp.engage", DeviceID: "d"}}); err == nil {
		t.Error("want error for unknown opcode")
	}
	good := Rule{Name: "x", Condition: cond, Action: Action{Op: "light.on", DeviceID: "light-1"}}
	if err := e.AddRule(good); err != nil {
		t.Fatalf("AddRule: %v", err)
	}
	if err := e.AddRule(good); err == nil {
		t.Error("want error for duplicate name")
	}
	if got := len(e.rules); got != 1 {
		t.Errorf("rules = %d", got)
	}
}

func TestAddRuleTextParseError(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), nil)
	if err := e.AddRuleText("bad", `WHEN nonsense THEN light.on @ l`); err == nil {
		t.Error("want parse error")
	}
}

func TestLoadRules(t *testing.T) {
	src := `
# benign household automations
evening lights: WHEN occupancy == TRUE AND hour_of_day >= 18 THEN light.on @ light-1

slow vent: WHEN smoke == TRUE FOR 2m THEN window.open @ window-1
`
	e := NewEngine(instr.BuiltinRegistry(), nil)
	n, err := LoadRules(strings.NewReader(src), e)
	if err != nil {
		t.Fatalf("LoadRules: %v", err)
	}
	if n != 2 || len(e.rules) != 2 {
		t.Fatalf("added = %d, rules = %d", n, len(e.rules))
	}
	if e.rules[1].Dwell != 2*time.Minute {
		t.Errorf("dwell = %v", e.rules[1].Dwell)
	}
}

func TestLoadRulesErrors(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), nil)
	// Missing colon.
	if _, err := LoadRules(strings.NewReader("no colon here"), e); err == nil {
		t.Error("want format error")
	}
	// Parse error carries the line number and rule name.
	src := "a: WHEN smoke == TRUE THEN light.on @ l\nb: WHEN nonsense THEN light.on @ l\n"
	n, err := LoadRules(strings.NewReader(src), NewEngine(instr.BuiltinRegistry(), nil))
	if err == nil || n != 1 {
		t.Errorf("n = %d, err = %v", n, err)
	}
	if err != nil && !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error missing line number: %v", err)
	}
}
