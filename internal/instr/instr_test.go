package instr

import (
	"strings"
	"testing"
)

func TestCategoriesCompleteOrdered(t *testing.T) {
	cats := Categories()
	if len(cats) != 9 {
		t.Fatalf("len = %d, want 9 (Table I)", len(cats))
	}
	for i, c := range cats {
		if int(c) != i+1 {
			t.Errorf("Categories()[%d] = %v", i, c)
		}
		if !c.Valid() {
			t.Errorf("category %v invalid", c)
		}
		if strings.Contains(c.String(), "(") {
			t.Errorf("category %v has no name", c)
		}
		if c.Title() == "" {
			t.Errorf("category %v has no title", c)
		}
	}
	if Category(0).Valid() || Category(10).Valid() {
		t.Error("out-of-range categories must be invalid")
	}
	if got := Category(42).String(); got != "category(42)" {
		t.Errorf("Category(42) = %q", got)
	}
	if got := Category(42).Title(); got != "category(42)" {
		t.Errorf("Category(42).Title() = %q", got)
	}
}

func TestKindAndThreatStrings(t *testing.T) {
	if KindControl.String() != "control" || KindStatus.String() != "status" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind name wrong")
	}
	levels := map[ThreatLevel]string{
		ThreatNone: "none", ThreatLow: "low", ThreatMedium: "medium", ThreatHigh: "high",
	}
	for l, want := range levels {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
	if ThreatLevel(99).String() != "threat(99)" {
		t.Error("unknown threat name wrong")
	}
	origins := map[Origin]string{OriginUser: "user", OriginAutomation: "automation", OriginUnknown: "unknown"}
	for o, want := range origins {
		if o.String() != want {
			t.Errorf("origin %d = %q, want %q", o, o.String(), want)
		}
	}
	if Origin(99).String() != "origin(99)" {
		t.Error("unknown origin name wrong")
	}
}

func TestNewRegistryValidation(t *testing.T) {
	tests := []struct {
		name  string
		specs []Spec
	}{
		{name: "empty opcode", specs: []Spec{{Op: "", Category: CatAlarm, Kind: KindControl}}},
		{name: "invalid category", specs: []Spec{{Op: "x.y", Category: 0, Kind: KindControl}}},
		{name: "invalid kind", specs: []Spec{{Op: "x.y", Category: CatAlarm, Kind: 0}}},
		{name: "duplicate opcode", specs: []Spec{
			{Op: "x.y", Category: CatAlarm, Kind: KindControl},
			{Op: "x.y", Category: CatAlarm, Kind: KindStatus},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewRegistry(tt.specs); err == nil {
				t.Error("want construction error")
			}
		})
	}
}

func TestBuiltinRegistry(t *testing.T) {
	r := BuiltinRegistry()
	if len(r.specs) < 60 {
		t.Fatalf("builtin set too small: %d", len(r.specs))
	}
	// Every category has at least one control and one status instruction.
	for _, c := range Categories() {
		var control, status bool
		for _, s := range r.specs {
			if s.Category != c {
				continue
			}
			switch s.Kind {
			case KindControl:
				control = true
			case KindStatus:
				status = true
			}
			if s.Description == "" {
				t.Errorf("spec %q has no description", s.Op)
			}
		}
		if !control || !status {
			t.Errorf("category %v missing control(%v)/status(%v) instructions", c, control, status)
		}
	}
}

func TestRegistryBuild(t *testing.T) {
	r := BuiltinRegistry()
	args := map[string]any{"position": 50}
	in, err := r.Build("curtain.set_position", "curtain-1", OriginUser, args)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if in.Category != CatCurtain || in.Kind != KindControl {
		t.Errorf("built instruction %+v", in)
	}
	// Args are copied at the boundary.
	args["position"] = 99
	if in.Args["position"] != 50 {
		t.Error("Build must copy args")
	}
	if _, err := r.Build("nuke.launch", "d", OriginUser, nil); err == nil {
		t.Error("want error for unknown opcode")
	}
	// No args -> nil map.
	in2, err := r.Build("light.on", "light-1", OriginAutomation, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if in2.Args != nil {
		t.Error("empty args should stay nil")
	}
}

func TestRegistryLookup(t *testing.T) {
	r := BuiltinRegistry()
	s, ok := r.Lookup("window.open")
	if !ok {
		t.Fatal("window.open missing from builtin set")
	}
	if s.Category != CatWindowDoorLock || s.Kind != KindControl {
		t.Errorf("window.open spec = %+v", s)
	}
	if _, ok := r.Lookup("none.such"); ok {
		t.Error("unexpected lookup hit")
	}
}
