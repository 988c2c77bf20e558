//go:build !amd64

package stl

// Without amd64 there is no vector classifier: classify4 and classify8 run
// their Go bodies.
var useAVX2 = false

func classify4AVX2(*[runElems / 8]uint8, []byte, uint64, uint64) { panic("stl: no vector classifier") }

func classify8AVX2(*[runElems / 8]uint8, []byte, uint64, uint64) { panic("stl: no vector classifier") }
