package stl

// useAVX2 routes classify4 and classify8 to the vector classifiers below, and
// streamCopy to the store kernel (stream_amd64.s). It is set once, before any
// init function runs, from what the CPU reports and the OS saves; under the
// race detector classify_race.go clears it.
var useAVX2 = avx2Usable()

// avx2Usable reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE and AVX, XCR0 bits
// 1 and 2, CPUID.7.0:EBX.AVX2).
func avx2Usable() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// classify4AVX2 and classify8AVX2 write one byte of hits per whole block of
// eight elements in src, as classify4 and classify8 do. They write as many
// bytes as src has blocks: the caller cuts src to runElems elements.
//
//go:noescape
func classify4AVX2(hits *[runElems / 8]uint8, src []byte, lo, span uint64)

//go:noescape
func classify8AVX2(hits *[runElems / 8]uint8, src []byte, lo, span uint64)
