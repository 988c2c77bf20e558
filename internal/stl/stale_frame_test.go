package stl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nds/internal/crypt"
	"nds/internal/nvm"
)

// TestWriteStaleFrameHoles is the write-side twin of the read path's
// TestReadIntoStaleBufferHoles. Pages are assembled in frames of the device's
// arena, which come back from erased blocks as they were, so every byte the
// payload does not cover must be written by whoever fills the frame. The arena
// is primed with frames full of 0xFF, payloads never contain 0xFF, and then
// neither a read of the space nor any page on the medium may show one — after
// a sub-page write to an unallocated slot, a whole-block write whose last page
// holds fewer payload bytes than a page (covered == pb < ps), the same over
// allocated slots, read-modify-writes of a full and of that short page, and a
// sub-page write of zeros. The plain configuration is the STL both NDS kinds
// run; hardware and software differ only above it.
func TestWriteStaleFrameHoles(t *testing.T) {
	const side, es = 32, 5 // 16x16-element blocks of 1280 B: two pages and a half
	writes := []struct {
		coord, sub []int64
		zeros      bool
	}{
		{coord: []int64{0, 0}, sub: []int64{2, 8}},              // sub-page, unallocated slot
		{coord: []int64{0, 1}, sub: []int64{16, 16}},            // whole block: its last page is short
		{coord: []int64{0, 1}, sub: []int64{16, 16}},            // again, over allocated slots
		{coord: []int64{1, 2}, sub: []int64{2, 8}},              // read-modify-write of a full page
		{coord: []int64{7, 2}, sub: []int64{2, 8}},              // read-modify-write of the short page
		{coord: []int64{8, 0}, sub: []int64{2, 8}, zeros: true}, // sub-page zeros, unallocated slot
	}
	for _, tc := range []struct {
		name      string
		mutate    func(*Config)
		encrypted bool
	}{
		{name: "plain"},
		{name: "write-buffered", mutate: func(c *Config) { c.WriteBuffering = true }},
		{name: "zero-elided", mutate: func(c *Config) { c.ZeroPageElision = true }},
		{name: "encrypted", encrypted: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			geo := nvm.Geometry{Channels: 2, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
			dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
			if err != nil {
				t.Fatal(err)
			}
			if tc.encrypted {
				e, err := crypt.New([]byte("k"))
				if err != nil {
					t.Fatal(err)
				}
				if err := dev.SetCipher(e); err != nil {
					t.Fatal(err)
				}
			}
			primeArena(dev, 64, fillFF)
			cfg := DefaultConfig()
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			st := mustNew(t, dev, cfg)
			s, err := st.CreateSpace(es, []int64{side, side})
			if err != nil {
				t.Fatal(err)
			}
			if s.bbBytes%int64(geo.PageSize) == 0 {
				t.Fatalf("blocks of %d bytes have no short last page", s.bbBytes)
			}
			v, err := NewView(s, []int64{side, side})
			if err != nil {
				t.Fatal(err)
			}

			image := make([]byte, side*side*es) // host model: zeros plus the writes
			rng := rand.New(rand.NewSource(15))
			for _, w := range writes {
				data := make([]byte, w.sub[0]*w.sub[1]*es)
				if !w.zeros {
					for i := range data {
						data[i] = byte(1 + rng.Intn(0xFE)) // never a hole, never the stale byte
					}
				}
				if _, _, err := st.WritePartition(0, v, w.coord, w.sub, data); err != nil {
					t.Fatalf("write %v/%v: %v", w.coord, w.sub, err)
				}
				pasteTile(image, side, es, w.coord, w.sub, data)
			}
			check := func(when string) {
				got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{side, side})
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != image[i] {
						t.Fatalf("%s: byte %d reads %#x, want %#x (0xff is a stale frame showing through)", when, i, got[i], image[i])
					}
				}
			}
			check("before flush")
			if _, err := st.Flush(0); err != nil {
				t.Fatal(err)
			}
			check("after flush")
			if cfg.ZeroPageElision && st.ZeroPagesSkipped() == 0 {
				t.Fatal("the sub-page write of zeros was programmed: the stale frame hid it from elision")
			}

			// The medium itself, short last pages' tails included.
			programmed := 0
			for i := int64(0); i < geo.TotalPages(); i++ {
				p := nvm.FromLinear(geo, i)
				if !dev.Programmed(p) {
					continue
				}
				programmed++
				if at := bytes.IndexByte(readOne(t, dev, p), 0xFF); at >= 0 {
					t.Fatalf("page %v holds a stale 0xff at byte %d", p, at)
				}
			}
			if programmed == 0 {
				t.Fatal("nothing was programmed")
			}
		})
	}
}

// primeArena draws n of dev's frames, has fill write each (i is its index),
// and gives them all back, so that the next n frames the device hands out
// hold what fill wrote: a write that trusts a frame to arrive clean, or a
// read that reaches a recycled one, shows it. It returns the frames.
func primeArena(dev *nvm.Device, n int, fill func(i int, f []byte)) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = dev.Frame()
		fill(i, frames[i])
	}
	for _, f := range frames {
		dev.Recycle(f)
	}
	return frames
}

// fillFF is primeArena's fill of a frame with 0xFF.
func fillFF(_ int, f []byte) {
	for i := range f {
		f[i] = 0xFF
	}
}

// TestFailedOverwriteLeavesOldOrNew: a write that runs out of capacity part
// way lands what it had queued — frames that were booked and not yet filled —
// and keeps no frame for the page that failed (a page draws its frame once it
// has a unit). The space is larger than the device holds: rows 0..127 carry an
// old version, rows 256..511 another tile, and the arena is primed with frames
// of that other tile's words, so that every frame the write draws is one the
// test filled. A write of rows 0..255 replaces the 128 old pages, places 76 of the
// 128 new ones and fails on the 77th with all 204 programs queued, the last 12
// of them still unfilled. Afterwards every word of rows 0..127 is the old or
// the attempted version, every word below is the attempted version or never
// written, none is the other tile's; and every frame is either a stored page
// or back in the arena.
func TestFailedOverwriteLeavesOldOrNew(t *testing.T) {
	const (
		rows, cols       = 512, 128
		old, next, other = 1, 2, 3 // a word is version<<24 | its element's index
		primed           = 800
	)
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 16, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	words := func(version, first, n int) []byte {
		b := make([]byte, 4*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(version<<24|(first+i)))
		}
		return b
	}
	known := make(map[*byte]bool, primed)
	for _, f := range primeArena(dev, primed, func(i int, f []byte) { copy(f, words(other, i, geo.PageSize/4)) }) {
		known[&f[0]] = true
	}
	cfg := DefaultConfig()
	cfg.OverProvision = 0.55 // 460 of 1024 pages: the logical budget runs out long before any die does
	st := mustNew(t, dev, cfg)
	s, err := st.CreateSpace(4, []int64{rows, cols})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{rows, cols})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{128, cols}, words(old, 0, 128*cols)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, v, []int64{1, 0}, []int64{256, cols}, words(other, 256*cols, 256*cols)); err != nil {
		t.Fatal(err)
	}
	_, stats, err := st.WritePartition(0, v, []int64{0, 0}, []int64{256, cols}, words(next, 0, 256*cols))
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("the oversized overwrite: got %v, want ErrCapacity", err)
	}
	if e, _ := st.GCStats(); e != 0 {
		t.Fatalf("%d blocks were collected: the queue was flushed before the write failed", e)
	}
	if stats.PagesProgrammed <= 128 || stats.PagesProgrammed >= 256 {
		t.Fatalf("%d pages programmed, want the write to fail among its new pages", stats.PagesProgrammed)
	}

	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{rows, cols})
	if err != nil {
		t.Fatal(err)
	}
	attempted := 0
	for i := 0; i < rows*cols; i++ {
		w := int(binary.LittleEndian.Uint32(got[4*i:]))
		var ok bool
		switch {
		case w == next<<24|i && i < 256*cols:
			ok = true
			attempted++
		case i < 128*cols:
			ok = w == old<<24|i
		case i < 256*cols:
			ok = w == 0
		default:
			ok = w == other<<24|i
		}
		if !ok {
			t.Fatalf("element %d (row %d) reads %#x: not its old version, not the attempted one", i, i/cols, w)
		}
	}
	if attempted != int(stats.PagesProgrammed)*geo.PageSize/4 {
		t.Fatalf("%d elements took the attempted version, %d pages were programmed", attempted, stats.PagesProgrammed)
	}

	// Every frame is one the test primed; the stored pages and the arena's free
	// list account for all of them, so the next draw is carved afresh.
	stored := 0
	for i := int64(0); i < geo.TotalPages(); i++ {
		if pg := dev.RawPage(nvm.FromLinear(geo, i)); pg != nil {
			if !known[&pg[0]] {
				t.Fatalf("page %v is stored in a frame the arena was not primed with", nvm.FromLinear(geo, i))
			}
			delete(known, &pg[0])
			stored++
		}
	}
	for range primed - stored {
		f := dev.Frame()
		if !known[&f[0]] {
			t.Fatalf("the arena ran out %d frames early: the failed write kept them", len(known))
		}
		delete(known, &f[0])
	}
	if f := dev.Frame(); len(known) != 0 || known[&f[0]] {
		t.Fatalf("%d primed frames unaccounted for", len(known))
	}
}

// TestFailedOverwriteKeepsOldUnit: an overwrite invalidates the old unit
// before it allocates the replacement, so one that finds no replacement must
// put the old unit back — or, if its block was erased meanwhile, clear the
// slot — or the slot names a page the reverse table calls dead, which a later
// write reuses. Two spaces of eight 16x16 float32 building blocks (two pages
// each) fill a 32-page array with no over-provision: A0, B0-B7, A1-A7. An
// overwrite of A0 then finds no page on any die. Deleting B frees half the
// array; the overwrite of A1 that follows collects A0's die, and A1's new unit
// used to be A0's dangling page, so A0 read A1's bytes. Forty overwrites of
// A2-A7 after a second overwrite of A0 then cycle every block. After each
// step the dies are audited (auditDies), every allocated slot must be live and
// named back by its reverse entry, and A reads back as the model says.
func TestFailedOverwriteKeepsOldUnit(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.OverProvision = 0
	sc := newScript(t, dev, cfg)
	audit := func(step string) {
		t.Helper()
		auditDies(t, sc.st)
		live := int64(0)
		for _, id := range sc.st.SpaceIDs() {
			s := sc.st.spaces[id]
			for g := int64(0); g < prod(s.grid); g++ {
				blk := sc.st.blockAt(s, g, false)
				if blk == nil {
					continue
				}
				for pg, slot := range blk.pages {
					if !slot.allocated() {
						continue
					}
					live++
					e := sc.st.rev[sc.st.lay.Linear(slot.word())]
					if !e.valid || e.space != id || int64(e.block) != g || int(e.page) != pg {
						t.Fatalf("%s: space %d block %d page %d names %v, whose reverse entry is %+v", step, id, g, pg, sc.st.lay.PPA(slot.word()), e)
					}
				}
			}
		}
		if used := sc.st.UsedPages(); used != live {
			t.Fatalf("%s: usedPages %d, %d slots allocated", step, used, live)
		}
	}
	sc.after = func() { audit("after a request") }
	const bb, nb = 16, 8
	sub := []int64{bb, bb}
	a := sc.space(t, 4, []int64{bb, nb * bb}, []int64{bb, nb * bb})
	b := sc.space(t, 4, []int64{bb, nb * bb}, []int64{bb, nb * bb})
	if n := a.v.space.pagesPerBB; n != 2 {
		t.Fatalf("building blocks of %d pages, the test wants 2", n)
	}
	rng := rand.New(rand.NewSource(29))
	tile := func() []byte { return fillRandom(rng, bb*bb*4) }
	at := sc.mustWrite(t, 0, a, []int64{0, 0}, sub, tile())
	for g := int64(0); g < nb; g++ {
		at = sc.mustWrite(t, at, b, []int64{0, g}, sub, tile())
	}
	for g := int64(1); g < nb; g++ {
		at = sc.mustWrite(t, at, a, []int64{0, g}, sub, tile())
	}
	readA := func() {
		t.Helper()
		for g := int64(0); g < nb; g++ {
			at = sc.read(t, at, a, []int64{0, g}, sub)
		}
	}
	readA()

	if _, err := sc.write(t, at, a, []int64{0, 0}, sub, tile()); !errors.Is(err, ErrCapacity) {
		t.Fatalf("overwrite of A0 on a full array: got %v, want ErrCapacity", err)
	}
	readA()
	if err := sc.st.DeleteSpace(b.v.space.ID()); err != nil {
		t.Fatal(err)
	}
	audit("after deleting B")
	at = sc.mustWrite(t, at, a, []int64{0, 1}, sub, tile())
	readA()
	at = sc.mustWrite(t, at, a, []int64{0, 0}, sub, tile())
	for i := 0; i < 40; i++ {
		at = sc.mustWrite(t, at, a, []int64{0, 2 + int64(i%6)}, sub, tile())
		readA()
	}
	if rep := sc.st.GCReport(); rep.Erases == 0 {
		t.Fatalf("the overwrites never collected a block: %+v", rep)
	}

	// The other outcome: a collection holds the unit's die when the overwrite
	// gives up, and erases the unit's block. restoreUnit must wait the
	// collection out and then clear the slot, not revive a unit that is gone.
	s := a.v.space
	var (
		g, pg int64
		w     nvm.Word
	)
find:
	for g = 0; g < nb; g++ {
		for i, slot := range sc.st.blockAt(s, g, false).pages {
			if w, pg = slot.word(), int64(i); !sc.st.dies[sc.st.lay.Die(w)].isOpen(sc.st.lay.Block(w)) {
				break find
			}
		}
	}
	slot := &sc.st.blockAt(s, g, false).pages[pg]
	ch, bk, victim := sc.st.lay.Channel(w), sc.st.lay.Bank(w), sc.st.lay.Block(w)
	d := sc.st.die(ch, bk)
	d.collecting = true // the test is the collector
	if taken, ok := sc.st.takeSlot(slot); !ok || taken.w != w {
		t.Fatalf("took %v from a slot naming %v", sc.st.lay.PPA(taken.w), sc.st.lay.PPA(w))
	}
	restored := make(chan struct{})
	go func() {
		sc.st.restoreUnit(revEntry{space: s.id, block: uint32(g), page: int32(pg)}, slot, w)
		close(restored)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-restored:
		t.Fatal("restoreUnit did not wait for the collection on the unit's die")
	default:
	}
	erases := dev.EraseCount(sc.st.lay.PPA(w))
	if _, progress, err := sc.st.evacuateBlock(at, ch, bk, victim); err != nil || !progress {
		t.Fatalf("evacuating block %d of ch%d/bk%d: %v, progress %v", victim, ch, bk, err, progress)
	}
	if dev.EraseCount(sc.st.lay.PPA(w)) == erases {
		t.Fatal("the evacuation did not erase the unit's block")
	}
	d.mu.Lock()
	d.collecting = false
	d.mu.Unlock()
	<-restored
	if slot.allocated() {
		t.Fatalf("block %d page %d still names %v, erased under it", g, pg, sc.st.lay.PPA(w))
	}
	audit("after the erased unit's overwrite gave up")
	at = sc.mustWrite(t, at, a, []int64{0, g}, sub, tile())
	readA()
}
