package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

func newBufferedSTL(t *testing.T) *STL {
	t.Helper()
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBufferedSubUnitWrites: a producer streaming pieces smaller than a page
// must not program anything until units fill — and reads in between must see
// the staged bytes (§4.4).
func TestBufferedSubUnitWrites(t *testing.T) {
	st := newBufferedSTL(t)
	s := mustSpace(t, st, 4, 64, 64) // 32x32 blocks, 512B pages = 4 block rows/page
	v := mustView(t, s, 64, 64)
	rng := rand.New(rand.NewSource(41))

	// One matrix row contributes 128 B per block: far below a page.
	row := fillRandom(rng, 64*4)
	if _, stats, err := st.WritePartition(0, v, []int64{7, 0}, []int64{1, 64}, row); err != nil {
		t.Fatal(err)
	} else if stats.PagesProgrammed != 0 {
		t.Fatalf("sub-unit write programmed %d pages, want 0 (staged)", stats.PagesProgrammed)
	}
	if st.PendingPages() == 0 {
		t.Fatal("nothing staged")
	}
	// The staged bytes serve reads immediately.
	got, _, rs, err := st.ReadPartition(0, v, []int64{7, 0}, []int64{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, row) {
		t.Fatal("staged bytes not visible to reads")
	}
	if rs.PagesRead != 0 {
		t.Fatalf("read of staged data touched %d device pages", rs.PagesRead)
	}

	// Completing the surrounding rows fills the pages and programs them.
	ref := newRefModel(s)
	ref.scatter(v.Dims(), []int64{7, 0}, []int64{1, 64}, row)
	var programmed int64
	for r := int64(0); r < 64; r++ {
		if r == 7 {
			continue
		}
		data := fillRandom(rng, 64*4)
		_, ws, err := st.WritePartition(0, v, []int64{r, 0}, []int64{1, 64}, data)
		if err != nil {
			t.Fatal(err)
		}
		programmed += ws.PagesProgrammed
		ref.scatter(v.Dims(), []int64{r, 0}, []int64{1, 64}, data)
	}
	if programmed == 0 {
		t.Fatal("filled units were never programmed")
	}
	if st.PendingPages() != 0 {
		t.Fatalf("%d pages still pending after full coverage", st.PendingPages())
	}
	got, _, _, err = st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.gather(v.Dims(), []int64{0, 0}, []int64{64, 64})) {
		t.Fatal("buffered write sequence corrupted data")
	}
}

func TestFlushProgramsPending(t *testing.T) {
	st := newBufferedSTL(t)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	rng := rand.New(rand.NewSource(42))
	row := fillRandom(rng, 64*4)
	if _, _, err := st.WritePartition(0, v, []int64{3, 0}, []int64{1, 64}, row); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() == 0 {
		t.Fatal("nothing pending")
	}
	before := st.UsedPages()
	if _, err := st.Flush(0); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != 0 {
		t.Fatal("flush left pending pages")
	}
	if st.UsedPages() <= before {
		t.Fatal("flush allocated no units")
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{3, 0}, []int64{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, row) {
		t.Fatal("flushed data wrong")
	}
}

// TestBufferedPropertyRoundTrip re-runs the random-partition property drive
// with write buffering enabled plus a final flush.
func TestBufferedPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 12; trial++ {
		st := newBufferedSTL(t)
		dims := []int64{3 + rng.Int63n(60), 3 + rng.Int63n(60)}
		s, err := st.CreateSpace(4, dims)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefModel(s)
		v := mustView(t, s, dims...)
		for w := 0; w < 6; w++ {
			sub := []int64{1 + rng.Int63n(dims[0]), 1 + rng.Int63n(dims[1])}
			coord := []int64{rng.Int63n((dims[0] + sub[0] - 1) / sub[0]), rng.Int63n((dims[1] + sub[1] - 1) / sub[1])}
			_, n, err := v.PartitionShape(coord, sub)
			if err != nil {
				t.Fatal(err)
			}
			data := fillRandom(rng, n*4)
			if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			ref.scatter(v.Dims(), coord, sub, data)
		}
		if _, err := st.Flush(0); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, dims)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.gather(v.Dims(), []int64{0, 0}, dims)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: buffered round-trip mismatch (dims %v)", trial, dims)
		}
	}
}

func TestDeleteSpaceDropsPending(t *testing.T) {
	st := newBufferedSTL(t)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{1, 64}, make([]byte, 64*4)); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() == 0 {
		t.Fatal("nothing pending")
	}
	if err := st.DeleteSpace(s.ID()); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != 0 {
		t.Fatal("delete left pending pages for a dead space")
	}
	if _, err := st.Flush(0); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedStagingFramesReturnToArena: a staged page's frame belongs to the
// pending map until its page is programmed, so a page that is dropped instead
// — its space deleted, or shrunk past it — hands the frame back. By frame
// identity: with the arena's free list empty, the draws that follow the drops
// are exactly the dropped pages' frames, and the page that survives the shrink
// keeps its own.
func TestDroppedStagingFramesReturnToArena(t *testing.T) {
	st := newBufferedSTL(t)
	doomed := mustSpace(t, st, 4, 64, 64)
	shrunk := mustSpace(t, st, 4, 128, 64)
	row := make([]byte, 64*4)
	rand.New(rand.NewSource(6)).Read(row)
	stage := func(s *Space, rows ...int64) {
		t.Helper()
		v := mustView(t, s, s.Dims()...)
		for _, r := range rows {
			if _, _, err := st.WritePartition(0, v, []int64{r, 0}, []int64{1, 64}, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	stage(doomed, 0, 40)
	stage(shrunk, 0, 70, 100) // rows 70 and 100 lie beyond the new bound
	// A row crosses two 32x32 blocks, so it stages two pages.
	survives := func(k pendingKey) bool { return k.space == shrunk.ID() && k.block/shrunk.grid[1] < 64/32 }
	dropped, kept := make(map[*byte]bool), make(map[*byte]bool)
	for k, pp := range st.pending {
		if survives(k) {
			kept[&pp.buf[0]] = true
		} else {
			dropped[&pp.buf[0]] = true
		}
	}
	if len(dropped) != 8 || len(kept) != 2 {
		t.Fatalf("staged %d pages to drop and %d to keep, want 8 and 2", len(dropped), len(kept))
	}

	if err := st.DeleteSpace(doomed.ID()); err != nil {
		t.Fatal(err)
	}
	if err := st.ResizeSpace(shrunk.ID(), 64); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != len(kept) {
		t.Fatalf("%d pages pending after the drops, want the %d below the new bound", st.PendingPages(), len(kept))
	}
	for k, pp := range st.pending {
		if !survives(k) || !kept[&pp.buf[0]] {
			t.Fatalf("page %+v is pending after the drops, in a frame that is not its own", k)
		}
	}
	for range 8 {
		f := st.dev.Frame()
		if !dropped[&f[0]] {
			t.Fatalf("the arena drew a new frame with %d dropped staging frames unreturned", len(dropped))
		}
		delete(dropped, &f[0])
	}
	if f := st.dev.Frame(); kept[&f[0]] {
		t.Fatal("a surviving page's frame went back to the arena with the dropped ones")
	}
}
