//go:build !race

package sensor

const raceEnabled = false
