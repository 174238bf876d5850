//go:build race

package par

// raceEnabled lets allocation-count tests stand down under the race
// detector, whose instrumentation changes allocation behaviour.
const raceEnabled = true
