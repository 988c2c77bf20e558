// Package zeromap hands out tables of zero values that cost memory only where
// they are used. A device's per-page tables are sized by its raw array, while
// a workload may write a few percent of it: on Linux such a table is a private
// anonymous mapping, whose pages the kernel supplies, zeroed, when they are
// first touched, and takes back when the table is released. Elsewhere, and
// under the race detector, which does not watch memory outside the Go heap, a
// table is an ordinary slice.
package zeromap

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Table owns the memory of one slice that Make returned. A mapping lives
// until its Table is unreachable, so whatever keeps the slice must keep the
// Table too.
type Table struct {
	mem      []byte // the slice's bytes
	mapped   bool   // mem is a mapping of its own, not Go heap
	released atomic.Bool
}

// released counts the bytes Release has dropped, over the process.
var released atomic.Int64

// Make returns n zero Ts and the Table that owns their memory. T must hold no
// Go pointer: the collector does not scan a mapping.
func Make[T any](n int) ([]T, *Table) {
	size := n * int(unsafe.Sizeof(*new(T)))
	if size > 0 {
		if mem := mapZeroed(size); mem != nil {
			t := &Table{mem: mem, mapped: true}
			runtime.SetFinalizer(t, func(t *Table) { unmap(t.mem) })
			return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n), t
		}
	}
	s := make([]T, n)
	return s, &Table{mem: unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), size)}
}

// Release drops the table's contents at once: a mapping's pages go back to
// the system, a heap table is cleared. Either way the slice stays addressable
// and reads zero, but an owner that releases a table is done with it. A second
// Release does nothing.
func (t *Table) Release() {
	if !t.released.CompareAndSwap(false, true) {
		return
	}
	if !t.mapped || !dropPages(t.mem) {
		clear(t.mem)
	}
	released.Add(int64(len(t.mem)))
}

// Released reports how many bytes Release has dropped in this process. A test
// hook: it shows that closing an owner released its tables, once.
func Released() int64 { return released.Load() }
