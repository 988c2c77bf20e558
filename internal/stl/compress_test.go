package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

func newCompressSTL(t *testing.T) *STL {
	t.Helper()
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 16, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Compress = true
	return mustNew(t, dev, cfg)
}

// compressiblePattern produces highly redundant data (long runs) that
// deflate shrinks well.
func compressiblePattern(n int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i / 256)
	}
	return out
}

func TestCompressedRoundTrip(t *testing.T) {
	st := newCompressSTL(t)
	s := mustSpace(t, st, 4, 96, 96)
	v := mustView(t, s, 96, 96)
	data := compressiblePattern(s.Bytes())
	_, wStats, err := st.WritePartition(0, v, []int64{0, 0}, []int64{96, 96}, data)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBlocks() == 0 {
		t.Fatal("redundant data did not compress any block")
	}
	// Compression must program fewer pages than the uncompressed footprint.
	uncompressedPages := int64(s.PagesPerBlock()) * prod(s.GridDims())
	if wStats.PagesProgrammed >= uncompressedPages {
		t.Fatalf("compressed write programmed %d pages, raw would be %d",
			wStats.PagesProgrammed, uncompressedPages)
	}
	got, _, rStats, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{96, 96})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("compressed round-trip mismatch")
	}
	if rStats.PagesRead >= uncompressedPages {
		t.Fatalf("compressed read touched %d pages, raw would be %d", rStats.PagesRead, uncompressedPages)
	}
}

func TestCompressedIncompressibleFallsBack(t *testing.T) {
	st := newCompressSTL(t)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	data := make([]byte, s.Bytes())
	rand.New(rand.NewSource(3)).Read(data) // incompressible
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, data); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("raw-fallback round-trip mismatch")
	}
}

// TestCompressedPartialOverwrite exercises the block-granular RMW path:
// patching part of a compressed block must preserve the rest.
func TestCompressedPartialOverwrite(t *testing.T) {
	st := newCompressSTL(t)
	s := mustSpace(t, st, 4, 96, 96)
	v := mustView(t, s, 96, 96)
	ref := newRefModel(s)
	base := compressiblePattern(s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{96, 96}, base); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), []int64{0, 0}, []int64{96, 96}, base)

	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		sub := []int64{1 + rng.Int63n(40), 1 + rng.Int63n(40)}
		coord := []int64{rng.Int63n(96 / sub[0]), rng.Int63n(96 / sub[1])}
		_, n, err := v.PartitionShape(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		patch := fillRandom(rng, n*4)
		if _, _, err := st.WritePartition(0, v, coord, sub, patch); err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		ref.scatter(v.Dims(), coord, sub, patch)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{96, 96})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.gather(v.Dims(), []int64{0, 0}, []int64{96, 96})
	if !bytes.Equal(got, want) {
		t.Fatal("compressed RMW corrupted data")
	}
}

func TestCompressRejectsPhantom(t *testing.T) {
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Compress = true
	if _, err := New(dev, cfg); err == nil {
		t.Fatal("compression on a phantom device accepted")
	}
}

func TestZeroPageElision(t *testing.T) {
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ZeroPageElision = true
	st := mustNew(t, dev, cfg)
	s, err := st.CreateSpace(4, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	// A sparse image: only one tile non-zero.
	data := make([]byte, s.Bytes())
	for i := 0; i < 32*32*4; i++ {
		data[i] = 0xAB
	}
	_, stats, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, data)
	if err != nil {
		t.Fatal(err)
	}
	if st.ZeroPagesSkipped() == 0 {
		t.Fatal("no zero pages elided for a sparse image")
	}
	// Three of four 32x32 blocks are all-zero: at most ~1/4 of pages written.
	total := int64(s.PagesPerBlock()) * prod(s.GridDims())
	if stats.PagesProgrammed > total/2 {
		t.Fatalf("programmed %d of %d pages for a 1/4-dense image", stats.PagesProgrammed, total)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("zero-page elision corrupted data")
	}
	// Overwriting non-zero data with zeros releases the units.
	used := st.UsedPages()
	zero := make([]byte, 32*32*4)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{32, 32}, zero); err != nil {
		t.Fatal(err)
	}
	if st.UsedPages() >= used {
		t.Fatalf("zero overwrite did not release units: %d -> %d", used, st.UsedPages())
	}
	got, _, _, err = st.ReadPartition(0, v, []int64{0, 0}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(got) {
		t.Fatal("zeroed tile reads back non-zero")
	}
}

// TestCompressedOverwriteOutOfCapacityKeepsOldImage: an overwrite of a
// compressed block whose new image finds no room fails with ErrCapacity and
// leaves the block as it was. The old units are given up only once the new
// image has landed, and put back, with the block's compressed representation,
// when it does not.
func TestCompressedOverwriteOutOfCapacityKeepsOldImage(t *testing.T) {
	st := newCompressSTL(t)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	old := compressiblePattern(s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, old); err != nil {
		t.Fatal(err)
	}

	// Fill the logical budget with random bands of a second space.
	rng := rand.New(rand.NewSource(5))
	const rows = 16
	fill := mustSpace(t, st, 4, 4096, 64)
	fv := mustView(t, fill, 4096, 64)
	full := false
	for b := int64(0); b < 4096/rows && !full; b++ {
		_, _, err := st.WritePartition(0, fv, []int64{b, 0}, []int64{rows, 64}, fillRandom(rng, rows*64*4))
		switch {
		case errors.Is(err, ErrCapacity):
			full = true
		case err != nil:
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("the filler never ran the logical budget out")
	}

	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, fillRandom(rng, s.Bytes())); !errors.Is(err, ErrCapacity) {
		t.Fatalf("incompressible overwrite on a full budget: got %v, want ErrCapacity", err)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != old[i] {
			t.Fatalf("byte %d of the old image lost by the failed overwrite", i)
		}
	}
}

// TestCompressedStoreKeepsOldImageAfterCollection: a compressed block's
// overwrite carves its new image before it gives up the old one. A second
// writer, standing in the carve hook, collects the old unit's die on the
// store's first carve and then takes every free page left, so the store's
// next carve finds none. The store must fail with ErrCapacity and leave the
// old image readable: the old unit is still live when the die is collected,
// and a collection keeps or moves a live page, never erases it.
func TestCompressedStoreKeepsOldImageAfterCollection(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Compress = true
	st := mustNew(t, dev, cfg)
	s := mustSpace(t, st, 4, 16, 16)
	v := mustView(t, s, 16, 16)
	old := compressiblePattern(s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{16, 16}, old); err != nil {
		t.Fatal(err)
	}
	blk, _ := st.block(s, []int64{0, 0}, false)
	if !blk.compressed || blk.physPages != 1 {
		t.Fatalf("the old image is stored in %d unit(s), compressed %v; want one compressed unit", blk.physPages, blk.compressed)
	}
	oldUnit := st.lay.PPA(blk.pages[0].load().word())

	st.carved = func(nvm.PPA) {
		st.carved = nil
		if _, err := st.collectDie(0, oldUnit.Channel, oldUnit.Bank, 1<<30); err != nil {
			t.Error(err)
		}
		for ch := range geo.Channels {
			for bk := range geo.Banks {
				for {
					if _, _, err := st.takeUnit(0, ch, bk, defaultStream, nil); err != nil {
						break
					}
				}
			}
		}
	}
	_, _, err = st.WritePartition(0, v, []int64{0, 0}, []int64{16, 16}, fillRandom(rand.New(rand.NewSource(7)), s.Bytes()))
	st.carved = nil
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("overwrite with no unit left: got %v, want ErrCapacity", err)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("the failed overwrite lost the old image")
	}
}
