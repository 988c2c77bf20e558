package stl

import "unsafe"

// streamLine is the cache line: the store kernel writes whole ones only.
const streamLine = 64

// streamCopy copies src into dst as copy does, but where the CPU has AVX2 it
// writes the whole cache lines of dst with non-temporal stores
// (stream_amd64.s), which skip the read for ownership a plain store makes of
// a line it does not hold. That read is the cost of filling a cold frame: Go's
// memmove switches to such stores only from 1 MiB up, and a page is filled in
// pieces of a few KiB. The partial lines at either end take a plain copy.
//
// Streamed stores are weakly ordered: the caller runs storeFence after the
// last of a burst and before anything may hand dst to another goroutine.
// Streaming into a line that is in cache evicts it, so only dst that is out of
// cache anyway gains.
func streamCopy(dst, src []byte) {
	n := min(len(dst), len(src))
	head := int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst))) & (streamLine - 1))
	if !useAVX2 || n < head+streamLine {
		copy(dst, src)
		return
	}
	body := head + (n-head)&^(streamLine-1)
	copy(dst[:head], src)
	streamCopyAVX2(dst[head:body], src[head:body])
	copy(dst[body:n], src[body:n])
}
