package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// auditFrames checks where the device's frames are against what the STL
// holds live: no frame has two owners (nvm.FrameStats.Lost), and the frames
// stored at owning pages are at most the live units plus slack, the pages a
// request may still hold that were replaced after its last flush.
func auditFrames(t *testing.T, st *STL, slack int) {
	t.Helper()
	fs := st.dev.FrameStats()
	if fs.Lost != 0 {
		t.Fatalf("frames %+v: %d with two owners", fs, fs.Lost)
	}
	if live := int(st.UsedPages()); fs.Held > live+slack {
		t.Fatalf("frames %+v: %d held for %d live units (slack %d)", fs, fs.Held, live, slack)
	}
}

// TestFramesTrackLiveData: a replaced unit gives its frame back once its
// replacement lands, so the frames the device holds follow the live data, not
// how much was written. "no collection" overwrites a 32-page space through
// twenty times its size with whole and partial tiles on an array that never
// collects, so no erase returns anything; "ageing" overwrites a tiny array
// through four raw capacities, collection relocating and erasing under the
// writes. After every request the bytes match the model, no frame has two
// owners, and the frames held are at most the live units plus one request's
// pages. A relocation's source needs no allowance: the frame it leaves is its
// destination's, and its block's erase follows the relocation in the same
// collection.
func TestFramesTrackLiveData(t *testing.T) {
	for _, tc := range []struct {
		name       string
		geo        nvm.Geometry
		rows, cols int64
		programs   int64 // page programs to issue
		collects   bool
	}{
		{name: "no collection", geo: nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 16, PageSize: 512},
			rows: 64, cols: 64, programs: 20 * 32},
		{name: "ageing", geo: nvm.Geometry{Channels: 4, Banks: 1, BlocksPerBank: 9, PagesPerBlock: 16, PageSize: 512},
			rows: 64, cols: 512, programs: 4 * 576, collects: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := nvm.NewDevice(tc.geo, nvm.TLCTiming(), false)
			if err != nil {
				t.Fatal(err)
			}
			sc := newScript(t, dev, DefaultConfig())
			c := sc.space(t, 4, []int64{tc.rows, tc.cols}, []int64{tc.rows, tc.cols})
			bb := c.v.space.bb
			if bb[0] != 32 || bb[1] != 32 || c.v.space.pagesPerBB != 8 {
				t.Fatalf("building blocks %v of %d pages, the test wants 32x32 of 8", bb, c.v.space.pagesPerBB)
			}
			sc.after = func() {
				auditDies(t, sc.st)
				auditFrames(t, sc.st, 8) // a request writes one block at most
			}
			rng := rand.New(rand.NewSource(41))
			gr, gc := tc.rows/32, tc.cols/32
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(gr*gc-1))
			var at = sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{tc.rows, tc.cols}, fillRandom(rng, tc.rows*tc.cols*4))
			for programmed := int64(0); programmed < tc.programs; {
				b := int64(zipf.Uint64())
				coord, sub := []int64{b / gc, b % gc}, []int64{32, 32}
				if rng.Intn(3) == 0 { // a quarter block: read-modify-writes
					sub = []int64{16, 16}
					coord = []int64{2*coord[0] + rng.Int63n(2), 2*coord[1] + rng.Int63n(2)}
				}
				at = sc.mustWrite(t, at, c, coord, sub, fillRandom(rng, sub[0]*sub[1]*4))
				programmed += sc.last.PagesProgrammed
				at = sc.read(t, at, c, coord, sub)
			}
			sc.read(t, at, c, []int64{0, 0}, []int64{tc.rows, tc.cols})
			rep := sc.st.GCReport()
			if collected := rep.Erases > 0 && rep.PagesRelocated > 0; collected != tc.collects || !tc.collects && rep.Runs != 0 {
				t.Fatalf("collection %+v, want relocations and erases: %v", rep, tc.collects)
			}
			fs := dev.FrameStats()
			t.Logf("%d pages live, frames %+v; %+v", sc.st.UsedPages(), fs, rep)
		})
	}
}

// TestDiscardSkipsReusedBlock: a dead unit's frame goes back only if its block
// was not emptied for an erase since the unit was taken. On one die of four
// four-page blocks holding twelve one-page building blocks, the seventh
// overwrite finds the die without a free block: its own inline collection
// erases the block of the unit it replaces and re-carves that page for a page
// relocated from the next victim. The overwrite's discard must leave that
// page's frame alone, or the relocated page reads as erased — and its frame
// is the next one the arena hands out.
func TestDiscardSkipsReusedBlock(t *testing.T) {
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.OverProvision = 0.25
	sc := newScript(t, dev, cfg)
	sc.after = func() {
		auditDies(t, sc.st)
		auditFrames(t, sc.st, 0)
	}
	const n = 12
	c := sc.space(t, 4, []int64{n * 128}, []int64{n * 128})
	if c.v.space.pagesPerBB != 1 {
		t.Fatalf("building blocks of %d pages, the test wants 1", c.v.space.pagesPerBB)
	}
	rng := rand.New(rand.NewSource(7))
	var at sim.Time
	for pg := int64(0); pg < n; pg++ {
		at = sc.mustWrite(t, at, c, []int64{pg}, []int64{128}, fillRandom(rng, 512))
	}
	for _, pg := range []int64{11, 2, 7, 9, 2, 10} {
		at = sc.mustWrite(t, at, c, []int64{pg}, []int64{128}, fillRandom(rng, 512))
	}
	st, d := sc.st, sc.st.die(0, 0)
	w := st.blockAt(c.v.space, 6, false).pages[0].load().word()
	gen := d.gen[st.lay.Block(w)]
	at = sc.mustWrite(t, at, c, []int64{6}, []int64{128}, fillRandom(rng, 512))
	if e := st.rev[st.lay.Linear(w)]; d.gen[st.lay.Block(w)] == gen || !e.valid || e.block == 6 {
		t.Fatalf("the overwrite of page 6 left its old unit %v with reverse entry %+v: its block was not re-carved for a relocated page", st.lay.PPA(w), e)
	}
	if dev.RawPage(st.lay.PPA(w)) == nil {
		t.Fatalf("%v, relocated there after its block was erased, lost its frame to the discard of the unit the overwrite replaced", st.lay.PPA(w))
	}
	at = sc.mustWrite(t, at, c, []int64{0}, []int64{128}, fillRandom(rng, 512)) // draws the arena's next frame
	sc.read(t, at, c, []int64{0}, []int64{n * 128})
}

// TestDiscardSkipsCollectingDie: while a collection holds a die, an owner
// gives back no frame there — the collector may have found the unit live
// before it was taken and be reading it to relocate — and the frame waits
// for the block's erase. Once the die is free again, the next overwrite's
// discard goes through.
func TestDiscardSkipsCollectingDie(t *testing.T) {
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 8, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(t, dev, DefaultConfig())
	c := sc.space(t, 4, []int64{4 * 128}, []int64{4 * 128})
	rng := rand.New(rand.NewSource(8))
	var at = sc.mustWrite(t, 0, c, []int64{0}, []int64{4 * 128}, fillRandom(rng, 4*512))
	st, d := sc.st, sc.st.die(0, 0)
	unit := func(pg int64) nvm.PPA { return st.lay.PPA(st.blockAt(c.v.space, pg, false).pages[0].load().word()) }

	d.mu.Lock()
	d.collecting = true // the test is the collector
	d.mu.Unlock()
	held := unit(0)
	at = sc.mustWrite(t, at, c, []int64{0}, []int64{128}, fillRandom(rng, 512))
	if dev.RawPage(held) == nil {
		t.Fatalf("%v gave its frame back while a collection held its die", held)
	}
	d.mu.Lock()
	d.collecting = false
	d.mu.Unlock()

	freed := unit(1)
	at = sc.mustWrite(t, at, c, []int64{1}, []int64{128}, fillRandom(rng, 512))
	if dev.RawPage(freed) != nil {
		t.Fatalf("%v kept its frame with no collection on its die", freed)
	}
	sc.read(t, at, c, []int64{0}, []int64{4 * 128})
	auditFrames(t, st, 1) // the frame the collection kept
}

// TestDiscardWaitsForReplacement: a replaced unit keeps its frame until its
// replacement is on flash. An overwrite whose every program attempt faults
// fails with ErrMedia, and the old page must still hold its bytes on the
// medium: it is the last copy of the data a restart could find.
func TestDiscardWaitsForReplacement(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 16, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(t, dev, DefaultConfig())
	c := sc.space(t, 4, []int64{2 * 128}, []int64{2 * 128})
	rng := rand.New(rand.NewSource(9))
	page := fillRandom(rng, 512)
	at := sc.mustWrite(t, 0, c, []int64{0}, []int64{128}, page)
	old := sc.st.lay.PPA(sc.st.blockAt(c.v.space, 0, false).pages[0].load().word())
	dev.SetFaultPlan(nvm.FaultPlan{Seed: 1, ProgramFailEvery: 1})
	if _, err := sc.write(t, at, c, []int64{0}, []int64{128}, fillRandom(rng, 512)); !errors.Is(err, ErrMedia) {
		t.Fatalf("an overwrite whose programs all fault: got %v, want ErrMedia", err)
	}
	if raw := dev.RawPage(old); !bytes.Equal(raw, page) {
		t.Fatalf("%v gave up its bytes though its replacement never landed", old)
	}
}
