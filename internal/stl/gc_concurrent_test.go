package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"nds/internal/nvm"
)

// TestGCUnderConcurrentWriters: heavy overwrite churn from several writers on
// distinct spaces, each collecting inline the dies it runs low on. The churn
// cycles the raw capacity several times over, so the test fails unless
// collection actually reclaims blocks while the writers run; every space must
// read back exactly the bytes its writer last stored. Collections relocate
// pages of spaces other writers are overwriting, and a writer whose die
// another writer's collection holds falls over to another die
// (allocateReplacement), so no write may fail. CI runs this under -race,
// which makes it the race check for the per-space write locks, the per-die
// allocation state, and the GC commit protocol.
//
// Whether the concurrent phase ever relocates a live page is up to the
// scheduler: the churn may empty every victim before its die is collected,
// and it does not leave a mixed-validity victim behind for certain. So a
// quiesced phase follows that builds one by hand and collects its die to
// exhaustion, and that is where relocation is asserted.
func TestGCUnderConcurrentWriters(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	st := mustNew(t, dev, DefaultConfig())

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

	// Quiesced phase: build the victim, then collect its die to exhaustion.
	rng := rand.New(rand.NewSource(44))
	page := make([]byte, geo.PageSize)
	concurrentMoves := st.GCReport().PagesRelocated
	ch, bk := buildMixedVictim(t, st, func(e revEntry) {
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
	})
	if _, err := st.collectDie(0, ch, bk, geo.PagesPerBank()); err != nil {
		t.Fatal(err)
	}

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

// buildMixedVictim leaves a closed block holding a live page beside a dead
// one, on the die with the most free pages of those that hold two live
// pages, and returns that die: collecting it to exhaustion then has to
// relocate a page. The roomiest die, because concurrent writers can leave a
// die with no free page, and there collection relocates nothing (collectDie's
// room check). rewrite overwrites one whole page, which replaces its unit on
// the same die.
//
// It takes the die's first two live pages x and y and rewrites x, y, y, x,
// then y once per page of an erase block: the first two make both building
// blocks recently written, so every rewrite after them goes to the die's hot
// block (overwriteStream), one after another. x's last copy therefore either
// follows a copy of y in its block or, at the head of the block, is followed
// by copies of y to the block's end; every copy of y but the last is dead,
// and the last lies past x's block.
func buildMixedVictim(t *testing.T, st *STL, rewrite func(revEntry)) (channel, bank int) {
	t.Helper()
	var live []revEntry
	most := int64(-1)
	for i, d := range st.dies {
		ch, bk := i/st.geo.Banks, i%st.geo.Banks
		var two []revEntry
		d.mu.Lock()
		for b := 0; b < st.geo.BlocksPerBank && len(two) < 2; b++ {
			for pg := 0; pg < st.geo.PagesPerBlock && len(two) < 2; pg++ {
				if e := st.rev[(nvm.PPA{Channel: ch, Bank: bk, Block: b, Page: pg}).Linear(st.geo)]; e.valid {
					two = append(two, e)
				}
			}
		}
		free := d.freePages.Load()
		d.mu.Unlock()
		if len(two) == 2 && free > most {
			channel, bank, live, most = ch, bk, two, free
		}
	}
	if live == nil {
		t.Fatal("no die holds two live pages")
	}
	x, y := live[0], live[1]
	rewrite(x)
	rewrite(y)
	rewrite(y)
	rewrite(x)
	for i := 0; i < st.geo.PagesPerBlock; i++ {
		rewrite(y)
	}
	return channel, bank
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

// TestGCSparesCarvedUnlandedUnit parks a writer between carving a unit and
// binding it — the unit is then in no reverse entry, so by valid counts alone
// its block, the die's open block, holds nothing — and collects the die from
// another goroutine, as a second writer would. A collector that closed and
// erased that block would hand it back to the free list with the writer about
// to program its first page; once the die's other blocks fill, the block
// reopens and the same page is carved again. The writes that follow fill the
// die to its logical capacity, so they reach that page. The unit stays
// unlanded (die.unlanded) past its binding, until its program lands.
func TestGCSparesCarvedUnlandedUnit(t *testing.T) {
	// One die of four 4-page blocks; a building block of 128 float32 is one
	// page. GCLowWater puts the die below the low mark from the first carve,
	// so every write after it collects the die.
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GCLowWater = 0.99
	st := mustNew(t, dev, cfg)
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
	var unit nvm.PPA
	select {
	case unit = <-parked:
	case err := <-first:
		t.Fatalf("the write returned (%v) without carving a unit", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the write neither carved a unit nor returned")
	}
	if _, err := st.collectDie(0, unit.Channel, unit.Bank, geo.PagesPerBank()); err != nil {
		t.Fatal(err)
	}
	st.carved = nil
	close(resume)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if rep := st.GCReport(); rep.Erases != 0 {
		t.Errorf("collection erased %d block(s) while %v was carved and not yet landed", rep.Erases, unit)
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

// TestOverwriteFallsOverOnlyWithoutRoom: a collection relocates the live
// pages of its victim whoever holds their spaces, so an overwrite's die is
// collected even when its only victim holds a page of a space another writer
// holds, and every overwrite stays on its die. Only a die with no room for
// its victim's survivors runs dry, and the overwrite that finds it so takes
// its unit from the other die instead of failing with ErrCapacity. The test
// plays the other writer by holding space B's lock throughout; the second arm
// leaves two of B's pages live in the victim where the die has room for one.
func TestOverwriteFallsOverOnlyWithoutRoom(t *testing.T) {
	for _, noRoom := range []bool{false, true} {
		name := "held"
		if noRoom {
			name = "no room"
		}
		t.Run(name, func(t *testing.T) {
			testOverwriteFallOver(t, noRoom)
		})
	}
}

func testOverwriteFallOver(t *testing.T, noRoom bool) {
	// Two dies, one a channel. Die ch0 keeps two of its four blocks, so the
	// §4.2 policy, which puts the two pages of a 16x16 float32 building block
	// on different channels, fills it while ch1 is half empty.
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ZeroPageElision = true // frees a unit without carving one
	st := mustNew(t, dev, cfg)
	st.retireBlock(0, 0, 2)
	st.retireBlock(0, 0, 3)

	const bb, nb = 16, 6 // B is a row of six building blocks
	a, b := mustSpace(t, st, 4, bb, bb), mustSpace(t, st, 4, bb, nb*bb)
	if got := a.BlockDims(); got[0] != bb || got[1] != bb || a.PagesPerBlock() != 2 {
		t.Fatalf("building block %v of %d pages, want %dx%d of 2", got, a.PagesPerBlock(), bb, bb)
	}
	va, vb := mustView(t, a, bb, bb), mustView(t, b, bb, nb*bb)
	rng := rand.New(rand.NewSource(28))
	imgA, imgB := fillRandom(rng, a.Bytes()), fillRandom(rng, b.Bytes())
	if _, _, err := st.WritePartition(0, va, []int64{0, 0}, []int64{bb, bb}, imgA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, vb, []int64{0, 0}, []int64{bb, nb * bb}, imgB); err != nil {
		t.Fatal(err)
	}
	// onDie0 is the page of building block g of s that lives on ch0.
	onDie0 := func(s *Space, g int64) (int, nvm.Word) {
		blk := st.blockAt(s, g, false)
		for i, slot := range blk.pages {
			if slot.allocated() && st.lay.Channel(slot.word()) == 0 {
				return i, slot.word()
			}
		}
		t.Fatalf("building block %d of space %d has no page on ch0", g, s.id)
		return 0, 0
	}
	// ch0 now holds A's page and three of B's in a closed block, and three
	// more of B's and its last free page in the open one. Zero all but one of
	// B's pages beside A's (all but two without room): once an overwrite of A
	// kills A's page there, that block is the die's only victim, with live
	// pages of B only.
	pgA, wA := onDie0(a, 0)
	half := []int64{bb / 2, bb}
	zeros := make([]byte, bb/2*bb*4)
	live := 1
	if noRoom {
		live = 2
	}
	beside := 0 // pages of B in A's block
	for g := int64(0); g < nb; g++ {
		pg, w := onDie0(b, g)
		if st.lay.Block(w) != st.lay.Block(wA) {
			continue
		}
		if beside++; beside <= live {
			continue
		}
		coord := []int64{int64(pg), g}
		if _, _, err := st.WritePartition(0, vb, coord, half, zeros); err != nil {
			t.Fatal(err)
		}
		pasteTile(imgB, nb*bb, 4, coord, half, zeros)
	}
	if free := st.die(0, 0).freePages.Load(); free != 1 || beside != geo.PagesPerBlock-1 {
		t.Fatalf("ch0 has %d free pages and %d pages of B beside A's, want 1 and %d", free, beside, geo.PagesPerBlock-1)
	}
	auditDies(t, st)

	// Two overwrites of A's page on ch0, with B held. The first one's
	// collection relocates B's page and erases the victim, and both stay on
	// ch0. Without room it relocates nothing, the first write takes ch0's last
	// page, and the second finds ch0 dry and falls over to ch1.
	coord := []int64{int64(pgA), 0}
	b.mu.Lock()
	var channels []int
	for i := 0; i < 2; i++ {
		page := fillRandom(rng, bb/2*bb*4)
		if _, _, err := st.WritePartition(0, va, coord, half, page); err != nil {
			t.Fatalf("overwrite %d of A: %v", i, err)
		}
		pasteTile(imgA, bb, 4, coord, half, page)
		channels = append(channels, st.lay.Channel(st.blockAt(a, 0, false).pages[pgA].word()))
		auditDies(t, st)
	}
	b.mu.Unlock()
	want := []int{0, 0}
	if noRoom {
		want[1] = 1
	}
	if !slices.Equal(channels, want) {
		t.Fatalf("the overwrites landed on channels %v, want %v", channels, want)
	}
	for _, c := range []struct {
		v   *View
		img []byte
	}{{va, imgA}, {vb, imgB}} {
		got, _, _, err := st.ReadPartition(0, c.v, []int64{0, 0}, c.v.Dims())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.img) {
			t.Fatal("a space does not read back what was written")
		}
	}
}
