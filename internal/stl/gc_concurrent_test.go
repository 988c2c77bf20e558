package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"nds/internal/nvm"
)

// TestBackgroundGCUnderConcurrentWriters: heavy overwrite churn from several
// writers on distinct spaces, with collection on the background worker. The
// churn cycles the raw capacity several times over, so the test fails unless
// watermark-driven collection actually reclaims blocks while the writers run;
// every space must read back exactly the bytes its writer last stored. CI
// runs this under -race, which makes it the race check for the per-space
// write locks, the per-die allocation state, and the GC commit protocol.
//
// Whether the concurrent phase ever relocates a live page is up to the
// scheduler: a mixed-validity victim is only evacuated when none of its
// owners holds its space lock at that moment, and with four writers that may
// never happen. Nor does it leave such a victim behind for certain. So a
// quiesced phase follows that builds one by hand and collects its die with
// every space idle, so that nothing can answer gcBusy, and that is where
// relocation is asserted.
func TestBackgroundGCUnderConcurrentWriters(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BackgroundGC = true
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const (
		writers = 4
		side    = 64 // 64x64 float32 per space; 32x32 building blocks
		iters   = 200
	)
	type client struct {
		s   *Space
		v   *View
		img []byte
	}
	clients := make([]*client, writers)
	for i := range clients {
		s, err := st.CreateSpace(4, []int64{side, side})
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(s, []int64{side, side})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = &client{s: s, v: v, img: make([]byte, side*side*4)}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + i)))
			rng.Read(c.img)
			if _, _, err := st.WritePartition(0, c.v, []int64{0, 0}, []int64{side, side}, c.img); err != nil {
				errs <- err
				return
			}
			bb := c.s.BlockDims()[0] // 32
			tile := make([]byte, bb*bb*4)
			for k := 0; k < iters; k++ {
				// Alternate whole-block and quarter-block overwrites: whole
				// blocks produce fully-invalid victims (cheap erases), quarter
				// blocks leave victims with live pages, forcing GC to relocate
				// data the final verification then checks.
				sub := bb
				if k%2 == 1 {
					sub = bb / 2
				}
				rng.Read(tile[:sub*sub*4])
				grid := int64(side) / sub
				coord := []int64{rng.Int63n(grid), rng.Int63n(grid)}
				if _, _, err := st.WritePartition(0, c.v, coord, []int64{sub, sub}, tile[:sub*sub*4]); err != nil {
					errs <- err
					return
				}
				pasteTile(c.img, side, 4, coord, []int64{sub, sub}, tile)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiesced phase. With the worker fenced out, build the victim: take two
	// live pages X and Y of one die and rewrite Y, X, then Y once per page of
	// an erase block. A rewrite of a whole page replaces its unit in the same
	// die, so X's new unit sits in a block that the Y rewrites fill and close,
	// next to a copy of Y a later rewrite invalidated. Collecting the die to
	// exhaustion then has to move X.
	st.maintMu.Lock()
	live := liveUnits(st, 2)
	if len(live) < 2 {
		t.Fatalf("die ch0/bk0 holds %d live pages of the 128 the spaces spread over 8 dies", len(live))
	}
	rng := rand.New(rand.NewSource(44))
	page := make([]byte, geo.PageSize)
	rewrite := func(e revEntry) {
		// A page of a 32x32 float32 block is four of its rows.
		c := clients[e.space-clients[0].s.id]
		grid := int64(side / 32)
		block := int64(e.block)
		coord, sub := []int64{block/grid*8 + int64(e.page), block % grid}, []int64{4, 32}
		rng.Read(page)
		if _, _, err := st.WritePartition(0, c.v, coord, sub, page); err != nil {
			t.Fatal(err)
		}
		pasteTile(c.img, side, 4, coord, sub, page)
	}
	concurrentMoves := st.GCReport().PagesRelocated
	x, y := live[0], live[1]
	rewrite(y)
	rewrite(x)
	for i := 0; i < geo.PagesPerBlock; i++ {
		rewrite(y)
	}
	if _, _, err := st.collectDie(0, 0, 0, nil, geo.PagesPerBank()); err != nil {
		t.Fatal(err)
	}
	st.maintMu.Unlock()

	for i, c := range clients {
		got, _, _, err := st.ReadPartition(0, c.v, []int64{0, 0}, []int64{side, side})
		if err != nil {
			t.Fatalf("writer %d final read: %v", i, err)
		}
		for j := range got {
			if got[j] != c.img[j] {
				t.Fatalf("writer %d: byte %d diverged from the host image", i, j)
			}
		}
	}
	rep := st.GCReport()
	if rep.Runs == 0 || rep.Erases == 0 {
		t.Fatalf("churn of several times raw capacity never collected: %+v", rep)
	}
	if rep.PagesRelocated == concurrentMoves {
		t.Fatalf("no live page was relocated even with every space idle — mixed-validity victims untested: %+v", rep)
	}
	t.Logf("GC report: %+v (%d pages relocated while the writers ran)", rep, concurrentMoves)
}

// liveUnits returns the reverse-map entries of the first n live pages of die
// ch0/bk0: what a test rewrites to build a mixed-validity victim there.
func liveUnits(st *STL, n int) []revEntry {
	var live []revEntry
	d := st.die(0, 0)
	d.mu.Lock()
	defer d.mu.Unlock()
	for b := 0; b < st.geo.BlocksPerBank && len(live) < n; b++ {
		for pg := 0; pg < st.geo.PagesPerBlock && len(live) < n; pg++ {
			if e := st.rev[(nvm.PPA{Block: b, Page: pg}).Linear(st.geo)]; e.valid {
				live = append(live, e)
			}
		}
	}
	return live
}

// TestNoStallAboveLowWatermark: the write-path contract of the watermark
// design — a foreground write blocks on reclamation only below the critical
// mark, so a workload that keeps every die above the low watermark must
// record zero GCStallNs.
func TestNoStallAboveLowWatermark(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BackgroundGC = true
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// One 128x128 float32 space is 128 pages over 1024 raw: writing it once
	// plus a round of tile overwrites leaves every die far above the
	// low-water mark (about 13 of its 128 pages).
	s, err := st.CreateSpace(4, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	img := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{128, 128}, img); err != nil {
		t.Fatal(err)
	}
	bb := s.BlockDims()[0]
	tile := make([]byte, bb*bb*4)
	for i := 0; i < 8; i++ {
		rng.Read(tile)
		coord := []int64{rng.Int63n(128 / bb), rng.Int63n(128 / bb)}
		if _, _, err := st.WritePartition(0, v, coord, []int64{bb, bb}, tile); err != nil {
			t.Fatal(err)
		}
	}
	if rep := st.GCReport(); rep.StallNs != 0 {
		t.Fatalf("write stalled %dns on GC with every die above the low watermark: %+v", rep.StallNs, rep)
	}
}

// TestGroupCommitFlushDrainsAllChannelsOnError: the Flush contract — when
// programs fail, every staged page on every channel is still attempted, every
// failed page stays pending for a retry, and the recorded error surfaces. A plan that fails every program attempt makes both
// staged pages (placed on different channels by the allocation policy)
// unrecoverable.
func TestGroupCommitFlushDrainsAllChannelsOnError(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	st := newFaultSTL(t, geo, cfg, nvm.FaultPlan{Seed: 7, ProgramFailEvery: 1})

	// One 16x16 building block spans two pages, which the §4.2 policy places
	// on the two different channels. Half-cover each page so both stage.
	s, err := st.CreateSpace(4, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	half := fillRandom(rng, 4*16*4)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{4, 16}, half); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{2, 0}, []int64{4, 16}, half); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != 2 {
		t.Fatalf("staged %d pages, want 2", st.PendingPages())
	}

	_, err = st.Flush(0)
	if !errors.Is(err, ErrMedia) {
		t.Fatalf("want ErrMedia from a flush whose every program fails, got %v", err)
	}
	if st.PendingPages() != 2 {
		t.Fatalf("%d pages pending after failed flush, want both retained", st.PendingPages())
	}
	r := st.Reliability()
	if r.ProgramFaults < 2 || r.RetiredBlocks < 2 {
		// One faulted program and one retirement per page proves the drain
		// went on to the second page rather than stopping at the first error.
		t.Fatalf("flush did not drain both channels: %+v", r)
	}
	// Staged bytes survive the failed flush: reads overlay the pending
	// buffers.
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != half[i] {
			t.Fatalf("byte %d of staged data lost by failed flush", i)
		}
	}
}

// TestGCSparesCarvedUnboundUnit parks a writer between carving a unit and
// binding it — the unit is then in no reverse entry, so by valid counts alone
// its block, the die's open block, holds nothing — and sweeps. A collector
// that closed and erased that block would hand it back to the free list with
// the writer about to program its first page; once the die's other blocks
// fill, the block reopens and the same page is carved again. The writes that
// follow fill the die to its logical capacity, so they reach that page.
func TestGCSparesCarvedUnboundUnit(t *testing.T) {
	// One die of four 4-page blocks; a building block of 128 float32 is one
	// page. GCLowWater puts the die below the low watermark from the first
	// carve, so every sweep tries to collect it.
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BackgroundGC = true
	cfg.GCLowWater = 0.99
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const pages, per = 14, 128 // the logical capacity, 10 % over-provisioned
	s, err := st.CreateSpace(4, []int64{pages * per})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{pages * per})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	img := fillRandom(rng, s.Bytes())
	write := func(pg int64) error {
		_, _, err := st.WritePartition(0, v, []int64{pg}, []int64{per}, img[pg*per*4:(pg+1)*per*4])
		return err
	}

	parked, resume := make(chan nvm.PPA), make(chan struct{})
	st.carved = func(p nvm.PPA) {
		parked <- p
		<-resume
	}
	first := make(chan error, 1)
	go func() { first <- write(0) }()
	unit := <-parked
	st.gcSweep()
	st.carved = nil
	close(resume)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if rep := st.GCReport(); rep.Erases != 0 {
		t.Errorf("the sweep erased %d block(s) while %v was carved and not yet bound", rep.Erases, unit)
	}
	for pg := int64(1); pg < pages; pg++ {
		if err := write(pg); err != nil {
			t.Fatalf("page %d: %v", pg, err)
		}
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0}, []int64{pages * per})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("the space does not read back what was written")
	}
}
