// Package zeromap hands out zero-filled memory outside the Go heap. A
// device's per-page tables are sized by its raw array, while a workload may
// write a few percent of it: on Linux such a table is a private anonymous
// mapping, whose pages the kernel supplies, zeroed, when they are first
// touched, and takes back when the table is released. A device's page frames
// come from chunks of the same kind, aligned and advised as huge pages, so the
// bytes a device stores neither count toward the collector's heap goal nor
// take a TLB entry per page. Elsewhere, and under the race detector, which
// does not watch memory outside the Go heap, a table or chunk is an ordinary
// slice.
package zeromap

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// HugePage is the size and alignment of a Chunk's mapping: an x86-64 or
// arm64 (4 KiB granule) transparent huge page.
const HugePage = 2 << 20

// Table owns the memory of one slice that Make or Chunk returned. A mapping
// lives until its Table is unreachable, so whatever keeps the slice must keep
// the Table too.
type Table struct {
	mem      []byte // the slice's bytes
	mapping  []byte // the mapping mem lies in, which the finalizer unmaps; nil for Go heap
	released atomic.Bool
}

// released counts the bytes Release has dropped, over the process.
var released atomic.Int64

// Make returns n zero Ts and the Table that owns their memory. T must hold no
// Go pointer: the collector does not scan a mapping.
func Make[T any](n int) ([]T, *Table) {
	size := n * int(unsafe.Sizeof(*new(T)))
	var t *Table
	if size > 0 {
		if mem := mapZeroed(size); mem != nil {
			t = owner(mem, mem)
		}
	}
	if t == nil {
		t = &Table{mem: unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]T, n)))), size)}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(t.mem))), n), t
}

// Chunk returns n zero bytes for memory that is touched densely, and the
// Table that owns them: a mapping that starts at a HugePage boundary and is
// advised as huge pages (MADV_HUGEPAGE), so that a 2 MiB stretch of it takes
// one TLB entry where the kernel grants a huge page. Like a table, its pages
// cost memory only once touched; unlike one, a chunk is meant to be filled.
func Chunk(n int) ([]byte, *Table) {
	if n > 0 {
		if mapping, mem := mapHuge(n); mapping != nil {
			return mem, owner(mapping, mem)
		}
	}
	mem := make([]byte, n)
	return mem, &Table{mem: mem}
}

// owner is the Table of mem, which lies in mapping, unmapped once the Table
// is unreachable.
func owner(mapping, mem []byte) *Table {
	t := &Table{mem: mem, mapping: mapping}
	runtime.SetFinalizer(t, func(t *Table) { unmap(t.mapping) })
	return t
}

// Release drops the table's contents at once: a mapping's pages go back to
// the system, a heap table is cleared. Either way the slice stays addressable
// and reads zero, but an owner that releases a table is done with it. A second
// Release does nothing.
func (t *Table) Release() {
	if !t.released.CompareAndSwap(false, true) {
		return
	}
	if t.mapping == nil || !dropPages(t.mem) {
		clear(t.mem)
	}
	released.Add(int64(len(t.mem)))
}

// Released reports how many bytes Release has dropped in this process. A test
// hook: it shows that closing an owner released its tables, once.
func Released() int64 { return released.Load() }
