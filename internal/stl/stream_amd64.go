package stl

// streamCopyAVX2 copies len(dst) bytes from src to dst with non-temporal
// stores. dst starts on a cache line and is whole lines long; src is at least
// as long.
//
//go:noescape
func streamCopyAVX2(dst, src []byte)

// storeFence is SFENCE: every store before it, streamed or not, is visible to
// every core before any store after it.
func storeFence()
