//go:build linux && !race

package zeromap

import (
	"syscall"
	"unsafe"
)

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

// mapHuge maps n bytes of private anonymous memory at a HugePage boundary,
// advised as huge pages, and returns the whole mapping (what unmap takes)
// and its aligned n bytes; nil if the system refuses. The mapping is a huge
// page longer than n, so that an aligned n fit in it; the slack is never
// touched and costs no memory. The advice is a hint: where transparent huge
// pages are off, or none is free at a fault, the kernel maps small pages.
func mapHuge(n int) (mapping, mem []byte) {
	mapping = mapZeroed(n + HugePage)
	if mapping == nil {
		return nil, nil
	}
	_ = syscall.Madvise(mapping, syscall.MADV_HUGEPAGE)
	off := (HugePage - addr(mapping)%HugePage) % HugePage
	return mapping, mapping[off : off+n : off+n]
}

// addr is the address of b's first byte.
func addr(b []byte) int { return int(uintptr(unsafe.Pointer(unsafe.SliceData(b)))) }

// dropPages hands mem's pages back to the system; the next touch of one reads
// a fresh zero page. It reports whether the system took them.
func dropPages(mem []byte) bool { return syscall.Madvise(mem, syscall.MADV_DONTNEED) == nil }

// unmap runs in a Table's finalizer, which has no caller to report a failure
// to; the mapping's address range is then merely leaked.
func unmap(mem []byte) { _ = syscall.Munmap(mem) }
