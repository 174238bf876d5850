package automation

import (
	"testing"
	"time"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func dwellSnap(smoke bool, at time.Time) sensor.Snapshot {
	s := sensor.NewSnapshot(at)
	s.Set(sensor.FeatSmoke, sensor.Bool(smoke))
	return s
}

func TestParseForClause(t *testing.T) {
	tests := []struct {
		src  string
		want time.Duration
	}{
		{`WHEN smoke == TRUE FOR 5m THEN window.open @ window-1`, 5 * time.Minute},
		{`WHEN smoke == TRUE FOR 30s THEN window.open @ window-1`, 30 * time.Second},
		{`WHEN smoke == TRUE FOR 1h30m THEN window.open @ window-1`, 90 * time.Minute},
		{`WHEN smoke == TRUE THEN window.open @ window-1`, 0},
	}
	for _, tt := range tests {
		r, err := testParser().ParseRule("r", tt.src)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", tt.src, err)
		}
		if r.Dwell != tt.want {
			t.Errorf("dwell(%q) = %v, want %v", tt.src, r.Dwell, tt.want)
		}
		// Rendered form re-parses with the same dwell.
		r2, err := testParser().ParseRule("r", r.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", r.String(), err)
		}
		if r2.Dwell != tt.want {
			t.Errorf("re-parsed dwell = %v, want %v", r2.Dwell, tt.want)
		}
	}
}

func TestParseForClauseErrors(t *testing.T) {
	bad := []string{
		`WHEN smoke == TRUE FOR THEN window.open @ window-1`,        // missing duration
		`WHEN smoke == TRUE FOR banana THEN window.open @ window-1`, // unparseable
		`WHEN smoke == TRUE FOR -5m THEN window.open @ window-1`,    // negative (lexed as number -5 then ident m)
	}
	for _, src := range bad {
		if _, err := testParser().ParseRule("r", src); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", src)
		}
	}
}

func TestDwellFiresAfterHold(t *testing.T) {
	var executed int
	e := NewEngine(instr.BuiltinRegistry(), func(in instr.Instruction) error {
		executed++
		return nil
	})
	if err := e.AddRuleText("slow vent", `WHEN smoke == TRUE FOR 5m THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)

	// Condition goes true at t0: no fire yet.
	if ev := e.Evaluate(dwellSnap(true, t0)); len(ev) != 0 {
		t.Fatalf("fired immediately: %v", ev)
	}
	// Still true at +3m: below the dwell.
	if ev := e.Evaluate(dwellSnap(true, t0.Add(3*time.Minute))); len(ev) != 0 {
		t.Fatalf("fired below dwell: %v", ev)
	}
	// +5m: fires exactly once.
	ev := e.Evaluate(dwellSnap(true, t0.Add(5*time.Minute)))
	if len(ev) != 1 || !ev[0].Allowed {
		t.Fatalf("dwell fire = %v", ev)
	}
	// +10m, still true: no refire within the same episode.
	if ev := e.Evaluate(dwellSnap(true, t0.Add(10*time.Minute))); len(ev) != 0 {
		t.Fatalf("refired in same episode: %v", ev)
	}
	if executed != 1 {
		t.Errorf("executed = %d", executed)
	}
}

func TestDwellResetOnConditionDrop(t *testing.T) {
	e := NewEngine(instr.BuiltinRegistry(), nil)
	if err := e.AddRuleText("slow vent", `WHEN smoke == TRUE FOR 5m THEN window.open @ window-1`); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2021, 4, 1, 12, 0, 0, 0, time.UTC)
	e.Evaluate(dwellSnap(true, t0))
	e.Evaluate(dwellSnap(true, t0.Add(4*time.Minute)))
	// Condition drops: the hold resets.
	e.Evaluate(dwellSnap(false, t0.Add(4*time.Minute+30*time.Second)))
	// True again: the old 4 minutes do not count.
	if ev := e.Evaluate(dwellSnap(true, t0.Add(5*time.Minute))); len(ev) != 0 {
		t.Fatalf("hold survived a false reading: %v", ev)
	}
	if ev := e.Evaluate(dwellSnap(true, t0.Add(9*time.Minute))); len(ev) != 0 {
		t.Fatalf("fired before fresh dwell elapsed: %v", ev)
	}
	ev := e.Evaluate(dwellSnap(true, t0.Add(10*time.Minute)))
	if len(ev) != 1 {
		t.Fatalf("fresh dwell did not fire: %v", ev)
	}
	// A new episode after another drop fires again.
	e.Evaluate(dwellSnap(false, t0.Add(11*time.Minute)))
	e.Evaluate(dwellSnap(true, t0.Add(12*time.Minute)))
	ev = e.Evaluate(dwellSnap(true, t0.Add(17*time.Minute)))
	if len(ev) != 1 {
		t.Fatalf("second episode did not fire: %v", ev)
	}
}
