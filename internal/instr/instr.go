// Package instr models the smart-home instruction set the paper extracts
// from Xiaomi gateway firmware (§IV-A: "all instructions are stored at the
// address 0x102F80 ... a function + an instruction"), the nine device
// categories of Table I, and the high/medium/low threat taxonomy from the
// China Mobile smart-home grading standard.
package instr

import (
	"fmt"
)

// Category is one of the nine smart-home device categories of Table I.
type Category int

// The nine device categories, in Table I order.
const (
	CatAlarm Category = iota + 1
	CatKitchen
	CatEntertainment
	CatAirConditioning
	CatCurtain
	CatLighting
	CatWindowDoorLock
	CatVacuum
	CatCamera
)

var categoryNames = map[Category]string{
	CatAlarm:           "alarm",
	CatKitchen:         "kitchen",
	CatEntertainment:   "entertainment",
	CatAirConditioning: "air_conditioning",
	CatCurtain:         "curtain",
	CatLighting:        "lighting",
	CatWindowDoorLock:  "window_door_lock",
	CatVacuum:          "vacuum",
	CatCamera:          "camera",
}

var categoryTitles = map[Category]string{
	CatAlarm:           "Alarm equipment",
	CatKitchen:         "Kitchen equipment",
	CatEntertainment:   "TV audio equipment",
	CatAirConditioning: "Air conditioning equipment",
	CatCurtain:         "Curtain blinds equipment",
	CatLighting:        "Lighting equipment",
	CatWindowDoorLock:  "Window equipment",
	CatVacuum:          "Sweeping robot equipment",
	CatCamera:          "Security camera equipment",
}

// Categories returns all nine categories in Table I order.
func Categories() []Category {
	return []Category{
		CatAlarm, CatKitchen, CatEntertainment, CatAirConditioning,
		CatCurtain, CatLighting, CatWindowDoorLock, CatVacuum, CatCamera,
	}
}

// String returns the canonical lower-snake name of the category.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Title returns the display name used in the paper's tables.
func (c Category) Title() string {
	if s, ok := categoryTitles[c]; ok {
		return s
	}
	return c.String()
}

// Valid reports whether c is one of the nine categories.
func (c Category) Valid() bool {
	_, ok := categoryNames[c]
	return ok
}

// Kind splits the instruction set the way the paper's questionnaire does:
// control instructions mutate device state, status instructions only read it.
type Kind int

// Instruction kinds.
const (
	KindControl Kind = iota + 1
	KindStatus
)

// String names the instruction kind.
func (k Kind) String() string {
	switch k {
	case KindControl:
		return "control"
	case KindStatus:
		return "status"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ThreatLevel is the questionnaire's threat taxonomy.
type ThreatLevel int

// Threat levels, per the China Mobile grading standard the paper cites.
const (
	ThreatNone ThreatLevel = iota + 1
	ThreatLow
	ThreatMedium
	ThreatHigh
)

// String names the threat level.
func (t ThreatLevel) String() string {
	switch t {
	case ThreatNone:
		return "none"
	case ThreatLow:
		return "low"
	case ThreatMedium:
		return "medium"
	case ThreatHigh:
		return "high"
	default:
		return fmt.Sprintf("threat(%d)", int(t))
	}
}

// Spec describes one entry of the extracted instruction set: the opcode
// (method name on the wire), its category, kind, and a human description.
type Spec struct {
	Op          string   `json:"op"`
	Category    Category `json:"category"`
	Kind        Kind     `json:"kind"`
	Description string   `json:"description"`
}

// Instruction is a concrete command addressed to one device.
type Instruction struct {
	Op       string         `json:"op"`
	DeviceID string         `json:"device_id"`
	Category Category       `json:"category"`
	Kind     Kind           `json:"kind"`
	Args     map[string]any `json:"args,omitempty"`
	Origin   Origin         `json:"origin"`
}

// Origin records which path issued the instruction.
type Origin int

// Instruction origins.
const (
	OriginUser Origin = iota + 1 // app / voice, direct user action
	OriginAutomation
	OriginUnknown
)

// String names the origin.
func (o Origin) String() string {
	switch o {
	case OriginUser:
		return "user"
	case OriginAutomation:
		return "automation"
	case OriginUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("origin(%d)", int(o))
	}
}

// Registry holds the instruction set, indexed by opcode.
type Registry struct {
	specs map[string]Spec
}

// NewRegistry builds a registry from a set of specs. Duplicate opcodes are
// an error — the firmware table has exactly one function per instruction.
func NewRegistry(specs []Spec) (*Registry, error) {
	r := &Registry{specs: make(map[string]Spec, len(specs))}
	for _, s := range specs {
		if s.Op == "" {
			return nil, fmt.Errorf("instr: spec with empty opcode")
		}
		if !s.Category.Valid() {
			return nil, fmt.Errorf("instr: spec %q has invalid category", s.Op)
		}
		if s.Kind != KindControl && s.Kind != KindStatus {
			return nil, fmt.Errorf("instr: spec %q has invalid kind", s.Op)
		}
		if _, dup := r.specs[s.Op]; dup {
			return nil, fmt.Errorf("instr: duplicate opcode %q", s.Op)
		}
		r.specs[s.Op] = s
	}
	return r, nil
}

// Lookup resolves an opcode.
func (r *Registry) Lookup(op string) (Spec, bool) {
	s, ok := r.specs[op]
	return s, ok
}

// Build constructs a concrete instruction for a device after validating the
// opcode against the registry. The instruction gets its own copy of args,
// nested maps and slices included, so the caller may reuse or change its
// map afterwards.
func (r *Registry) Build(op, deviceID string, origin Origin, args map[string]any) (Instruction, error) {
	spec, ok := r.specs[op]
	if !ok {
		return Instruction{}, fmt.Errorf("instr: unknown opcode %q", op)
	}
	var copied map[string]any
	if len(args) > 0 {
		copied = cloneArgs(args)
	}
	return Instruction{
		Op:       op,
		DeviceID: deviceID,
		Category: spec.Category,
		Kind:     spec.Kind,
		Args:     copied,
		Origin:   origin,
	}, nil
}

// cloneArgs deep-copies an args map: the map[string]any and []any values
// JSON decodes into are copied at every depth; any other value is copied
// as it is.
func cloneArgs(m map[string]any) map[string]any {
	c := make(map[string]any, len(m))
	for k, v := range m {
		c[k] = cloneArg(v)
	}
	return c
}

func cloneArg(v any) any {
	switch v := v.(type) {
	case map[string]any:
		if v != nil {
			return cloneArgs(v)
		}
	case []any:
		if v != nil {
			c := make([]any, len(v))
			for i, x := range v {
				c[i] = cloneArg(x)
			}
			return c
		}
	}
	return v
}
