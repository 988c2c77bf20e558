package zeromap

import (
	"runtime"
	"testing"
	"unsafe"
)

type entry struct {
	a int64
	b uint32
	c bool
}

// TestMakeAndRelease: a table starts zero, holds what is stored in it, and
// reads zero again once released, whether it is a mapping or on the heap.
// Release counts the table's bytes once, however often it is called.
func TestMakeAndRelease(t *testing.T) {
	const n = 100_000 // 1.6 MB: many pages
	s, tab := Make[entry](n)
	if len(s) != n || cap(s) != n {
		t.Fatalf("len %d cap %d, want %d", len(s), cap(s), n)
	}
	for i := range s {
		if s[i] != (entry{}) {
			t.Fatalf("entry %d is %+v before any store", i, s[i])
		}
	}
	for i := 0; i < n; i += 97 {
		s[i] = entry{int64(i), uint32(i), true}
	}
	for i := 0; i < n; i += 97 {
		if s[i] != (entry{int64(i), uint32(i), true}) {
			t.Fatalf("entry %d reads %+v", i, s[i])
		}
	}
	r0 := Released()
	tab.Release()
	tab.Release()
	if got, want := Released()-r0, int64(n*unsafe.Sizeof(entry{})); got != want {
		t.Fatalf("two Releases counted %d B, want the table's %d once", got, want)
	}
	for i := range s {
		if s[i] != (entry{}) {
			t.Fatalf("entry %d is %+v after the release", i, s[i])
		}
	}
	runtime.KeepAlive(tab)
}

// TestEmptyTable: a table of nothing needs no memory and releases nothing.
func TestEmptyTable(t *testing.T) {
	s, tab := Make[entry](0)
	r0 := Released()
	tab.Release()
	if len(s) != 0 || Released() != r0 {
		t.Fatalf("an empty table has %d entries and released %d B", len(s), Released()-r0)
	}
}

// TestChunk: a chunk starts zero, at a huge page where it is mapped, holds
// what is stored in it, and Release counts its bytes once.
func TestChunk(t *testing.T) {
	const n = HugePage + 4096
	c, tab := Chunk(n)
	if len(c) != n || cap(c) != n {
		t.Fatalf("len %d cap %d, want %d", len(c), cap(c), n)
	}
	if a := uintptr(unsafe.Pointer(&c[0])); Mapped && a%HugePage != 0 {
		t.Fatalf("a mapped chunk starts at %#x, not at a huge page", a)
	}
	for i := range c {
		if c[i] != 0 {
			t.Fatalf("byte %d is %d before any store", i, c[i])
		}
		c[i] = byte(i)
	}
	for i := range c {
		if c[i] != byte(i) {
			t.Fatalf("byte %d reads %d", i, c[i])
		}
	}
	r0 := Released()
	tab.Release()
	tab.Release()
	if got := Released() - r0; got != n {
		t.Fatalf("two Releases counted %d B, want the chunk's %d once", got, n)
	}
	runtime.KeepAlive(tab)
}
