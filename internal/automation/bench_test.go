package automation

import (
	"fmt"
	"testing"

	"iotsid/internal/instr"
	"iotsid/internal/sensor"
)

func BenchmarkParseRule(b *testing.B) {
	p := NewParser(instr.BuiltinRegistry())
	src := `WHEN occupancy == TRUE AND hour_of_day >= 18 AND illuminance < 150 FOR 5m THEN light.on @ light-1 WITH brightness = 60`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.ParseRule("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateHundredRules(b *testing.B) {
	e := NewEngine(instr.BuiltinRegistry(), func(instr.Instruction) error { return nil })
	for i := 0; i < 100; i++ {
		src := fmt.Sprintf(`WHEN occupancy == TRUE AND hour_of_day >= %d THEN light.on @ light-1`, i%24)
		if err := e.AddRuleText(fmt.Sprintf("r%d", i), src); err != nil {
			b.Fatal(err)
		}
	}
	// Each op is every rule's rising edge and the falling edge after it,
	// so every rule fires once per op.
	evening, empty := eveningSnap(), eveningSnap().Clone()
	empty.Set(sensor.FeatOccupancy, sensor.Bool(false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(evening)
		e.Evaluate(empty)
	}
}
