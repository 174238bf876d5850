package trust

import (
	"fmt"
	"math"

	"iotsid/internal/sensor"
)

// InvariantKind selects the check an Invariant performs.
type InvariantKind int

// The three invariant shapes: a bound on how far a feature may move
// between consecutive observations, a closed range the feature must stay
// inside, and a two-feature contradiction (A=false while B=true cannot
// both be honest).
const (
	MaxStep InvariantKind = iota + 1
	Range
	Contradiction
)

// String implements fmt.Stringer.
func (k InvariantKind) String() string {
	switch k {
	case MaxStep:
		return "max_step"
	case Range:
		return "range"
	case Contradiction:
		return "contradiction"
	}
	return fmt.Sprintf("invariant(%d)", int(k))
}

// Invariant is one declarative physics-ish consistency rule. Rules are
// evaluated over (previous, current) observation pairs and must be
// total: absent features, non-numeric values, NaN/Inf and zero
// timestamps never panic — a rule that cannot apply simply does not
// fire, except that a Range rule treats a non-finite numeric value as
// out of range (no physical quantity is NaN).
type Invariant struct {
	// Name labels the rule in violations and metrics.
	Name string
	// Kind selects the check.
	Kind InvariantKind
	// Feature is the checked feature for MaxStep and Range rules.
	Feature sensor.Feature
	// Limit bounds |current − previous| for MaxStep rules.
	Limit float64
	// Min and Max close the allowed interval for Range rules.
	Min, Max float64
	// A and B are the contradiction pair: A=false while B=true violates.
	A, B sensor.Feature
}

// validate rejects structurally broken rules at engine construction.
func (iv Invariant) validate() error {
	if iv.Name == "" {
		return fmt.Errorf("invariant has no name")
	}
	switch iv.Kind {
	case MaxStep:
		if !iv.Feature.Valid() {
			return fmt.Errorf("%s: max_step rule needs a vocabulary feature", iv.Name)
		}
		if !(iv.Limit > 0) || math.IsInf(iv.Limit, 0) {
			return fmt.Errorf("%s: max_step limit %v must be a positive finite number", iv.Name, iv.Limit)
		}
	case Range:
		if !iv.Feature.Valid() {
			return fmt.Errorf("%s: range rule needs a vocabulary feature", iv.Name)
		}
		if math.IsNaN(iv.Min) || math.IsNaN(iv.Max) || iv.Min > iv.Max {
			return fmt.Errorf("%s: range [%v, %v] is empty or NaN", iv.Name, iv.Min, iv.Max)
		}
	case Contradiction:
		if !iv.A.Valid() || !iv.B.Valid() {
			return fmt.Errorf("%s: contradiction rule needs two vocabulary features", iv.Name)
		}
	default:
		return fmt.Errorf("%s: unknown kind %d", iv.Name, int(iv.Kind))
	}
	return nil
}

// Eval checks the rule over one (previous, current) observation pair and
// reports whether it fired, with a human-readable detail. It is total
// over adversarial inputs: either snapshot may be the zero value, carry
// absent values, values of the wrong type or non-finite numbers.
func (iv Invariant) Eval(prev, cur sensor.Snapshot) (bool, string) {
	switch iv.Kind {
	case MaxStep:
		pv, pok := numericFeature(prev, iv.Feature)
		cv, cok := numericFeature(cur, iv.Feature)
		if !pok || !cok {
			return false, ""
		}
		if step := math.Abs(cv - pv); step > iv.Limit {
			return true, fmt.Sprintf("%s: %s stepped %.4g, limit %.4g", iv.Name, iv.Feature, step, iv.Limit)
		}
	case Range:
		v, ok := cur.Get(iv.Feature)
		if !ok {
			return false, ""
		}
		num, isNum := v.Numeric()
		if !isNum {
			return false, ""
		}
		if math.IsNaN(num) || math.IsInf(num, 0) {
			return true, fmt.Sprintf("%s: %s non-finite value %v", iv.Name, iv.Feature, num)
		}
		if num < iv.Min || num > iv.Max {
			return true, fmt.Sprintf("%s: %s at %.4g outside [%.4g, %.4g]", iv.Name, iv.Feature, num, iv.Min, iv.Max)
		}
	case Contradiction:
		av, aok := boolFeature(cur, iv.A)
		bv, bok := boolFeature(cur, iv.B)
		if aok && bok && !av && bv {
			return true, fmt.Sprintf("%s: %s=false contradicts %s=true", iv.Name, iv.A, iv.B)
		}
	}
	return false, ""
}

// numericFeature extracts a finite numeric (or boolean-coerced) value.
func numericFeature(s sensor.Snapshot, f sensor.Feature) (float64, bool) {
	v, ok := s.Get(f)
	if !ok {
		return 0, false
	}
	num, isNum := v.Numeric()
	if !isNum || math.IsNaN(num) || math.IsInf(num, 0) {
		return 0, false
	}
	return num, true
}

// boolFeature extracts a present boolean value (no default-on-absent:
// an absent occupancy report must not read as "nobody home").
func boolFeature(s sensor.Snapshot, f sensor.Feature) (bool, bool) {
	v, ok := s.Get(f)
	if !ok {
		return false, false
	}
	return v.Bool()
}

// DefaultInvariants is the stock physics table for the shared feature
// vocabulary: step bounds tighter than any honest indoor dynamics, hard
// physical ranges, and the canonical occupancy/motion contradiction.
func DefaultInvariants() []Invariant {
	return []Invariant{
		{Name: "temp_step", Kind: MaxStep, Feature: sensor.FeatTempIndoor, Limit: 10},
		{Name: "temp_range", Kind: Range, Feature: sensor.FeatTempIndoor, Min: -40, Max: 60},
		{Name: "aqi_range", Kind: Range, Feature: sensor.FeatAirQuality, Min: 0, Max: 500},
		{Name: "humidity_range", Kind: Range, Feature: sensor.FeatHumidity, Min: 0, Max: 100},
		{Name: "hour_range", Kind: Range, Feature: sensor.FeatHour, Min: 0, Max: 24},
		{Name: "noise_range", Kind: Range, Feature: sensor.FeatNoise, Min: 0, Max: 194},
		{Name: "power_range", Kind: Range, Feature: sensor.FeatPowerDraw, Min: 0, Max: 100_000},
		{Name: "occupancy_motion", Kind: Contradiction, A: sensor.FeatOccupancy, B: sensor.FeatMotion},
	}
}
