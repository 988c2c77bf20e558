package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

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
	return mustNew(t, dev, cfg)
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

// TestDroppedStagingFramesReturnToArena: a staged page's frame belongs to its
// space's staging map until its page is programmed, so a page that is dropped instead
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
	survives := func(k pageKey) bool { return k.block/shrunk.grid[1] < 64/32 }
	dropped, kept := make(map[*byte]bool), make(map[*byte]bool)
	for _, pp := range doomed.staged {
		dropped[&pp.buf[0]] = true
	}
	for k, pp := range shrunk.staged {
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
	if _, err := st.ResizeSpace(0, shrunk.ID(), 64); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != len(kept) {
		t.Fatalf("%d pages pending after the drops, want the %d below the new bound", st.PendingPages(), len(kept))
	}
	for k, pp := range shrunk.staged {
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

// stageRows writes the rows of s, one at a time, through a view of its whole
// shape, and returns the first error.
func stageRows(st *STL, s *Space, row []byte, rows ...int64) error {
	v, err := NewView(s, s.Dims())
	if err != nil {
		return err
	}
	for _, r := range rows {
		if _, _, err := st.WritePartition(0, v, []int64{r, 0}, []int64{1, s.Dims()[1]}, row); err != nil {
			return err
		}
	}
	return nil
}

// checkRow reads row r of s and fails the test unless it holds want.
func checkRow(t *testing.T, st *STL, s *Space, r int64, want []byte) {
	t.Helper()
	v := mustView(t, s, s.Dims()...)
	got, _, _, err := st.ReadPartition(0, v, []int64{r, 0}, []int64{1, s.Dims()[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("row %d of space %d lost its acknowledged bytes", r, s.ID())
	}
}

// TestStagedPageSurvivesFailedAllocation: a write that fills a staged page and
// finds no unit for it fails, and the page stays staged with every byte the
// earlier writes put there. A 512 B page of a 64x64 float32 space holds rows
// 0-3 of its blocks, so the write of row 3 fills the pages row 0 staged.
func TestStagedPageSurvivesFailedAllocation(t *testing.T) {
	st := newBufferedSTL(t)
	s := mustSpace(t, st, 4, 64, 64)
	rng := rand.New(rand.NewSource(43))
	row0 := fillRandom(rng, 64*4)
	if err := stageRows(st, s, row0, 0); err != nil {
		t.Fatal(err)
	}
	// Exhaust the logical budget from another space, one block row at a time.
	filler := mustSpace(t, st, 4, 8192, 64)
	fv := mustView(t, filler, 8192, 64)
	band := fillRandom(rng, 32*64*4)
	var err error
	for r := int64(0); err == nil; r++ {
		if r == 8192/32 {
			t.Fatal("the filler space did not exhaust the device")
		}
		_, _, err = st.WritePartition(0, fv, []int64{r, 0}, []int64{32, 64}, band)
	}
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("filling the device: %v, want ErrCapacity", err)
	}
	staged := st.PendingPages()
	if err := stageRows(st, s, fillRandom(rng, 64*4), 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := stageRows(st, s, fillRandom(rng, 64*4), 3); !errors.Is(err, ErrCapacity) {
		t.Fatalf("the write that fills the staged pages: %v, want ErrCapacity", err)
	}
	checkRow(t, st, s, 0, row0)
	if st.PendingPages() != staged {
		t.Fatalf("%d pages staged after the failed write, want the %d it found", st.PendingPages(), staged)
	}
}

// TestStagedPageSurvivesFailedLanding: a write that fills a staged page whose
// program never lands fails, and the page stays staged with every byte the
// earlier writes put there.
func TestStagedPageSurvivesFailedLanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	st := newFaultSTL(t, smallGeo(), cfg, nvm.FaultPlan{Seed: 3, ProgramFailEvery: 1})
	s := mustSpace(t, st, 4, 64, 64)
	rng := rand.New(rand.NewSource(44))
	row0 := fillRandom(rng, 64*4)
	if err := stageRows(st, s, row0, 0, 1, 2); err != nil {
		t.Fatal(err)
	}
	staged := st.PendingPages()
	if err := stageRows(st, s, fillRandom(rng, 64*4), 3); !errors.Is(err, ErrMedia) {
		t.Fatalf("the write that fills the staged pages: %v, want ErrMedia", err)
	}
	checkRow(t, st, s, 0, row0)
	if st.PendingPages() != staged {
		t.Fatalf("%d pages staged after the failed write, want the %d it found", st.PendingPages(), staged)
	}
	if st.UsedPages() != 0 {
		t.Fatalf("%d units live after no program landed", st.UsedPages())
	}
}

// TestFlushHoldsUpNoOtherSpace parks Flush on its first carve, with the pages
// of the space it drains staged and not yet programmed, and reads another
// space meanwhile: the read must not wait for the flush.
func TestFlushHoldsUpNoOtherSpace(t *testing.T) {
	st := newBufferedSTL(t)
	staged := mustSpace(t, st, 4, 64, 64)
	other := mustSpace(t, st, 4, 64, 64)
	rng := rand.New(rand.NewSource(45))
	if err := stageRows(st, staged, fillRandom(rng, 64*4), 0); err != nil {
		t.Fatal(err)
	}
	row := fillRandom(rng, 64*4)
	if err := stageRows(st, other, row, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := stageRows(st, staged, fillRandom(rng, 64*4), 4); err != nil {
		t.Fatal(err)
	}

	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	st.carved = func(nvm.PPA) {
		once.Do(func() {
			close(parked)
			<-resume
		})
	}
	flushed := make(chan error, 1)
	go func() {
		_, err := st.Flush(0)
		flushed <- err
	}()
	select {
	case <-parked:
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) without carving a unit", err)
	case <-time.After(10 * time.Second):
		close(resume)
		t.Fatal("Flush neither carved a unit nor returned")
	}
	read := make(chan []byte, 1)
	go func() {
		v, err := NewView(other, []int64{64, 64})
		if err != nil {
			read <- nil
			return
		}
		got, _, _, _ := st.ReadPartition(0, v, []int64{8, 0}, []int64{1, 64})
		read <- got
	}()
	select {
	case got := <-read:
		if !bytes.Equal(got, row) {
			t.Error("the read beside the flush returned the wrong bytes")
		}
		close(resume)
	case <-time.After(3 * time.Second):
		t.Error("a read of another space waited for the flush")
		close(resume)
		<-read
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	st.carved = nil
}

// TestFlushCrossSpaceOrder pins where a flush of three spaces' staged pages
// puts them. The spaces stage interleaved sub-page rows on a device an
// overwrite history has brought to the collector's low mark, so the flush
// collects inline between its programs; the trace holds the flush's
// completion, every staged page's unit, the device counters and each
// channel's busy share.
func TestFlushCrossSpaceOrder(t *testing.T) {
	sc, hot := newTwin(t, 4, []int64{512, 256}, []int64{512, 256},
		func(c *Config) { c.WriteBuffering = true; c.OverProvision = 0.5; c.GCLowWater = 0.3 })
	rng := rand.New(rand.NewSource(46))
	at := sc.mustWrite(t, 0, hot, []int64{0, 0}, []int64{512, 256}, fillRandom(rng, 512*256*4))
	for r := 0; r < 1000; r++ {
		at = sc.mustWrite(t, at, hot, []int64{rng.Int63n(64), rng.Int63n(8)}, []int64{8, 32}, fillRandom(rng, 8*32*4))
	}
	var cold [3]*checked
	for i := range cold {
		cold[i] = sc.space(t, 4, []int64{64, 128}, []int64{64, 128})
	}
	// Four rows of a block share a page. Each space skips a different one of
	// every four, which leaves every page its rows touch partly covered, so
	// all of them stay staged until the flush.
	type stagedPage struct {
		s     *Space
		block int64
		page  int
	}
	var pages []stagedPage
	for r := int64(0); r < 64; r++ {
		for i, c := range cold {
			if (r+int64(i))%4 == 3 {
				continue
			}
			at = sc.mustWrite(t, at, c, []int64{r, 0}, []int64{1, 128}, fillRandom(rng, 128*4))
			for b := int64(0); b < 4; b++ {
				pages = append(pages, stagedPage{c.v.space, r/32*4 + b, int(r % 32 / 4)})
			}
		}
	}
	runs := sc.st.GCReport().Runs
	done := sc.flush(t, at)
	if sc.st.GCReport().Runs == runs {
		t.Fatal("the flush never collected; raise the pressure")
	}
	seen := make(map[stagedPage]bool)
	for _, p := range pages {
		if seen[p] {
			continue
		}
		seen[p] = true
		slot := sc.st.blockAt(p.s, p.block, false).pages[p.page].load()
		sc.tr.Add("space %d block %d page %d unit %v", p.s.ID(), p.block, p.page, sc.st.lay.PPA(slot.word()))
	}
	reads, programs, erases := sc.st.dev.Counters()
	horizon := sc.st.dev.NextIdle()
	sc.tr.Add("device reads=%d programs=%d erases=%d horizon=%d channels=%v", reads, programs, erases, horizon, sc.st.dev.ChannelUtilization(horizon))
	for _, c := range cold {
		sc.read(t, done, c, []int64{0, 0}, []int64{64, 128})
	}
	sc.golden(t, "TestFlushCrossSpaceOrder")
}
