//go:build !race

package l0

// raceEnabled reports that the race detector is on; see race_test.go.
const raceEnabled = false
