//go:build !linux || race

package zeromap

// Without a mapping the standard library can release (syscall.Madvise is
// Linux's alone), and under the race detector, every table is on the Go heap.

// Mapped reports whether Make maps its tables.
const Mapped = false

func mapZeroed(int) []byte { return nil }

func mapHuge(int) (mapping, mem []byte) { return nil, nil }

func dropPages([]byte) bool { return false }

func unmap([]byte) {}
