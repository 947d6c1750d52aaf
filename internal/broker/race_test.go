//go:build race

package broker

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
