//go:build race

package stl

// The race detector sees neither loads nor stores made in assembly. The
// classifiers read device frames on lease, and the store kernel writes frames
// the device takes over at the next flush: a frame reused under either must
// stay visible to it, so race builds classify and fill pages in Go.
func init() { useAVX2 = false }
