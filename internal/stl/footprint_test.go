package stl

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"nds/internal/nvm"
	"nds/internal/sim"
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
	if err := st.ResizeSpace(s.id, per<<32+1); err == nil {
		t.Fatal("a resize took the grid past 2^32 blocks")
	}
	if err := st.ResizeSpace(s.id, per); err != nil {
		t.Fatal(err)
	}
}

// TestReadHoldsOneExtentBatch: a read consumes its extent walk walkBatch
// extents at a time and never holds the list whole. A whole-space read of
// 65 536 extents — each of 1024 rows crosses 64 building blocks, two block
// rows of them written, the rest not — leaves the scratch it ran on with an
// extent buffer of walkBatch, reports the extent count View.ExtentCount
// counts, and returns the scalar twin's bytes, statistics and completion time.
func TestReadHoldsOneExtentBatch(t *testing.T) {
	const rows, cols = 1024, 2048
	var (
		st [2]*STL // scalar, batched
		v  [2]*View
	)
	band := make([]byte, 64*cols*4)
	rand.New(rand.NewSource(25)).Read(band)
	for i, scalar := range []bool{true, false} {
		dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.ScalarPath = scalar
		if st[i], err = New(dev, cfg); err != nil {
			t.Fatal(err)
		}
		v[i] = mustView(t, mustSpace(t, st[i], 4, rows, cols), rows, cols)
		if _, _, err := st[i].WritePartition(0, v[i], []int64{1, 0}, []int64{64, cols}, band); err != nil {
			t.Fatal(err)
		}
	}
	origin, whole := []int64{0, 0}, []int64{rows, cols}
	want, dW, sW, err := st[0].ReadPartition(0, v[0], origin, whole)
	if err != nil {
		t.Fatal(err)
	}
	var (
		got []byte
		dG  sim.Time
		sG  RequestStats
	)
	one := oneScratch{rs: &requestScratch{}}
	one.run(st[1], func() { got, dG, sG, err = st[1].ReadPartition(0, v[1], origin, whole) })
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := v[1].ExtentCount(origin, whole)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case one.shared != 1:
		t.Fatal("the read did not run on the test's scratch")
	case n < 1<<16 || sG.Extents != n:
		t.Fatalf("the read reports %d extents, ExtentCount %d (want at least 65536)", sG.Extents, n)
	case cap(one.rs.exts) > walkBatch:
		t.Fatalf("a read of %d extents left an extent buffer of %d, want at most %d", n, cap(one.rs.exts), walkBatch)
	case dG != dW || sG != sW:
		t.Fatalf("batched (%v, %+v), scalar (%v, %+v)", dG, sG, dW, sW)
	case !bytes.Equal(got, want) || !bytes.Equal(got[64*cols*4:128*cols*4], band):
		t.Fatal("the batched read's bytes differ from the scalar twin's or from the band written")
	}
}
