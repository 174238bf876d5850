//go:build !race

package trust

const raceEnabled = false
