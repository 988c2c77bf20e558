//go:build !race

package stl

// raceEnabled reports whether the race detector is compiled in. See
// race_enabled_test.go.
const raceEnabled = false
