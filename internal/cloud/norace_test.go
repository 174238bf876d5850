//go:build !race

package cloud

const raceEnabled = false
