//go:build race

package stl

// The race detector does not see loads made in assembly, and the kernels read
// device frames on lease: a frame reused under a kernel must stay visible to
// it, so race builds classify in Go.
func init() { useAVX2 = false }
