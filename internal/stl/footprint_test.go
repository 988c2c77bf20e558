package stl

import (
	"math/rand"
	"testing"
	"unsafe"

	"nds/internal/nvm"
)

// TestMetadataSizes: the structures §7.3's accounting describes are the size
// it says. A B-tree leaf slot is one page word, the 4 bytes IndexFootprint
// charges per access unit, and a reverse-table entry — one per physical page —
// is at most 16 bytes.
func TestMetadataSizes(t *testing.T) {
	if n := unsafe.Sizeof(pageSlot(0)); n != 4 {
		t.Errorf("a leaf slot is %d bytes, IndexFootprint charges 4", n)
	}
	if n := unsafe.Sizeof(revEntry{}); n > 16 {
		t.Errorf("a reverse entry is %d bytes, want at most 16", n)
	}
}

// TestGridBound: a reverse entry names its block by a 32-bit grid index, so a
// space is refused a grid of more than 2³² building blocks, at creation and on
// a resize, and given one of exactly that many.
func TestGridBound(t *testing.T) {
	st := newTestSTL(t, true)
	per := mustSpace(t, st, 4, 1).bb[0] // elements per 1-D building block
	if _, err := st.CreateSpace(4, []int64{per<<32 + 1}); err == nil {
		t.Fatal("a grid of 2^32 + 1 blocks was created")
	}
	s := mustSpace(t, st, 4, per<<32)
	if _, err := st.ResizeSpace(0, s.id, per<<32+1); err == nil {
		t.Fatal("a resize took the grid past 2^32 blocks")
	}
	if _, err := st.ResizeSpace(0, s.id, per); err != nil {
		t.Fatal(err)
	}
}

// TestReadHoldsOneExtentBatch: a read consumes its extent walk walkBatch
// extents at a time and never holds the list whole. A whole-space read of
// 65 536 extents — each of 1024 rows crosses 64 building blocks, two block
// rows of them written, the rest not — leaves the scratch it ran on with an
// extent buffer of walkBatch, reports the extent count View.ExtentCount
// counts, and returns the model's bytes and the golden trace's statistics and
// completion time.
func TestReadHoldsOneExtentBatch(t *testing.T) {
	const rows, cols = 1024, 2048
	band := make([]byte, 64*cols*4)
	rand.New(rand.NewSource(25)).Read(band)
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(t, dev, DefaultConfig())
	c := sc.space(t, 4, []int64{rows, cols}, []int64{rows, cols})
	sc.mustWrite(t, 0, c, []int64{1, 0}, []int64{64, cols}, band)
	origin, whole := []int64{0, 0}, []int64{rows, cols}
	one := oneScratch{rs: &requestScratch{}}
	sc.lend = func(request func()) { one.run(sc.st, request) }
	sc.read(t, 0, c, origin, whole)
	st := sc.last
	n, _, err := c.v.ExtentCount(origin, whole)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case one.shared != 1:
		t.Fatal("the read did not run on the test's scratch")
	case n < 1<<16 || st.Extents != n:
		t.Fatalf("the read reports %d extents, ExtentCount %d (want at least 65536)", st.Extents, n)
	case cap(one.rs.exts) > walkBatch:
		t.Fatalf("a read of %d extents left an extent buffer of %d, want at most %d", n, cap(one.rs.exts), walkBatch)
	}
	sc.golden(t, "TestReadHoldsOneExtentBatch")
}
