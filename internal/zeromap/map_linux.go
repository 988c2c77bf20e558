//go:build linux && !race

package zeromap

import "syscall"

// Mapped reports whether Make maps its tables.
const Mapped = true

// mapZeroed maps n bytes of private anonymous memory, nil if the system
// refuses.
func mapZeroed(n int) []byte {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return mem
}

// dropPages hands mem's pages back to the system; the next touch of one reads
// a fresh zero page. It reports whether the system took them.
func dropPages(mem []byte) bool { return syscall.Madvise(mem, syscall.MADV_DONTNEED) == nil }

// unmap runs in a Table's finalizer, which has no caller to report a failure
// to; the mapping's address range is then merely leaked.
func unmap(mem []byte) { _ = syscall.Munmap(mem) }
