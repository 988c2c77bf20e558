//go:build race

package stl

// raceEnabled reports whether the race detector is compiled in; allocation
// gates skip under it, because it makes sync.Pool drop what is put back.
const raceEnabled = true
