//go:build race

package l0

// raceEnabled reports that the race detector is on. It makes sync.Pool drop
// a share of the objects put back, so pooled scratch is rebuilt now and then
// and an exact zero-allocation count cannot hold.
const raceEnabled = true
