package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"nds/internal/zeromap"
)

// xorCipher is a size-preserving stand-in for the inline engine of
// internal/crypt (which imports this package): the keystream depends on the
// address, so a page sealed for one address does not open at another.
type xorCipher struct{}

func (xorCipher) key(p PPA) byte { return byte(0x5A + 31*p.Channel + 17*p.Bank + 7*p.Block + p.Page) }

func (c xorCipher) Seal(p PPA, dst, plain []byte) {
	for i, b := range plain {
		dst[i] = b ^ c.key(p)
	}
}

func (c xorCipher) Open(p PPA, sealed []byte) []byte {
	out := make([]byte, len(sealed))
	c.Seal(p, out, sealed)
	return out
}

// frameDevices yields a plain and an encrypted test device.
func frameDevices(t *testing.T, f func(t *testing.T, d *Device, encrypted bool)) {
	for _, encrypted := range []bool{false, true} {
		name := "plain"
		if encrypted {
			name = "encrypted"
		}
		t.Run(name, func(t *testing.T) {
			d := newTestDevice(t, false)
			if encrypted {
				if err := d.SetCipher(xorCipher{}); err != nil {
					t.Fatal(err)
				}
			}
			f(t, d, encrypted)
		})
	}
}

// TestShortProgramIntoRecycledFrame: frames of an erased block return to the
// arena as they were, so a payload shorter than a page must have the rest of
// its frame cleared, programmed alone or in a batch.
func TestShortProgramIntoRecycledFrame(t *testing.T) {
	frameDevices(t, func(t *testing.T, d *Device, _ bool) {
		ps := d.geo.PageSize
		ff := bytes.Repeat([]byte{0xFF}, ps)
		for pg := 0; pg < d.geo.PagesPerBlock; pg++ {
			if _, err := programOne(d, 0, PPA{1, 1, 0, pg}, ff); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.EraseBlock(0, PPA{1, 1, 0, 0}); err != nil {
			t.Fatal(err)
		}
		short := []byte{1, 2, 3}
		dsts := []PPA{{0, 0, 1, 0}, {0, 0, 1, 1}, {2, 1, 1, 0}}
		if _, err := programOne(d, 0, dsts[0], short); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ProgramPages([]ProgramOp{
			{P: dsts[1], Data: short},
			{P: dsts[2], Data: short, Owned: true}, // not a whole frame: copied
		}); err != nil {
			t.Fatal(err)
		}
		want := append(append([]byte(nil), short...), make([]byte, ps-len(short))...)
		for _, p := range dsts {
			got, _, err := readOne(d, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v reads %x…%x, want the payload and a zero tail", p, got[:4], got[ps-2:])
			}
		}
	})
}

// TestFrameOrigin: Frame draws from the free list first — a frame handed back
// unprogrammed, or stored and then erased, is the next one drawn, dirty — and
// carves from a chunk only when the list is empty: a new device's first frame
// is its first chunk's first slot, zeroed by the system, and the next carve
// is the slot after it.
func TestFrameOrigin(t *testing.T) {
	d := newTestDevice(t, false)
	f := d.Frame()
	if n := d.frames.number(f); n != 1 || !bytes.Equal(f, make([]byte, len(f))) {
		t.Fatalf("a new device's first frame is number %d, zeroed %v; want 1, zeroed", n, bytes.Equal(f, make([]byte, len(f))))
	}
	f[0] = 0xAB
	d.Recycle(f)
	if g := d.Frame(); &g[0] != &f[0] || g[0] != 0xAB {
		t.Fatalf("after Recycle: the same frame %v, as it was handed back %v; want both", &g[0] == &f[0], g[0] == 0xAB)
	}
	p := PPA{0, 0, 0, 0}
	if _, err := d.ProgramPages([]ProgramOp{{P: p, Data: f, Owned: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseBlock(0, p); err != nil {
		t.Fatal(err)
	}
	if g := d.Frame(); &g[0] != &f[0] {
		t.Fatal("after the erase: the next frame drawn is not the one the block held")
	}
	if g := d.Frame(); d.frames.number(g) != 2 {
		t.Fatalf("with the free list empty, the arena carved frame %d, want 2", d.frames.number(g))
	}
}

// TestOwnedFrameStoredInPlace: a whole frame handed over with Owned becomes
// the stored page itself — sealed in place under a cipher — and a frame whose
// op did not land stays with the caller, untouched.
func TestOwnedFrameStoredInPlace(t *testing.T) {
	frameDevices(t, func(t *testing.T, d *Device, encrypted bool) {
		seed := int64(0)
		for mix64(seed, 0, 1)%2 != 0 {
			seed++
		}
		d.SetFaultPlan(FaultPlan{Seed: seed, ProgramFailEvery: 2}) // die 0: the second attempt fails
		ps := d.geo.PageSize
		ops := make([]ProgramOp, 3)
		plain := make([][]byte, len(ops))
		for i := range ops {
			plain[i] = bytes.Repeat([]byte{byte(i + 1)}, ps)
			frame := d.Frame()
			copy(frame, plain[i])
			ops[i] = ProgramOp{P: PPA{0, 0, 2, i}, Data: frame, Owned: true}
		}
		_, err := d.ProgramPages(ops)
		var pe *ProgramError
		if !errors.As(err, &pe) || pe.Index != 1 {
			t.Fatalf("want a program fault at op 1, got %v", err)
		}
		raw := d.RawPage(ops[0].P)
		if len(raw) != ps || &raw[0] != &ops[0].Data[0] {
			t.Fatal("the landed op's frame is not the stored page")
		}
		if encrypted == bytes.Equal(raw, plain[0]) {
			t.Fatalf("medium holds plaintext: %v, want %v", !encrypted, encrypted)
		}
		if got, _, _ := readOne(d, 0, ops[0].P); !bytes.Equal(got, plain[0]) {
			t.Fatal("the landed page does not read back")
		}
		for i := 1; i < len(ops); i++ {
			if d.RawPage(ops[i].P) != nil || !bytes.Equal(ops[i].Data, plain[i]) {
				t.Fatalf("op %d did not land, yet its frame was stored or sealed", i)
			}
		}
	})
}

// TestMoveRehomesFrame: a relocation within a die stores the source's frame
// at the destination, so the bytes outlive the erase of the block they were
// programmed in; across dies, and under a cipher (the keystream is the
// address's), the bytes are copied. Either way the source reads its bytes
// until its block is erased, and that erase leaves an alias taken before the
// move good.
func TestMoveRehomesFrame(t *testing.T) {
	frameDevices(t, func(t *testing.T, d *Device, encrypted bool) {
		ps := d.geo.PageSize
		src, same, other := PPA{3, 1, 0, 4}, PPA{3, 1, 5, 0}, PPA{2, 0, 5, 0}
		page := bytes.Repeat([]byte{0xAB}, ps)
		if _, err := programOne(d, 0, src, page); err != nil {
			t.Fatal(err)
		}
		alias, _, err := readOne(d, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		before := d.RawPage(src)
		if _, err := d.ProgramPages([]ProgramOp{{P: other, Data: alias, Move: true, From: src}}); err != nil {
			t.Fatal(err)
		}
		if raw := d.RawPage(other); raw == nil || &raw[0] == &before[0] || d.RawPage(src) == nil {
			t.Fatal("a relocation to another die must copy and leave the source its frame")
		}
		if _, err := d.ProgramPages([]ProgramOp{{P: same, Data: alias, Move: true, From: src}}); err != nil {
			t.Fatal(err)
		}
		moved := &d.RawPage(same)[0] == &before[0]
		if moved == encrypted {
			t.Fatalf("same-die relocation moved the frame: %v, want %v", moved, !encrypted)
		}
		if raw := d.RawPage(src); raw == nil || &raw[0] != &before[0] {
			t.Fatal("the source gave up its frame before its block was erased")
		}
		if got, _, _ := readOne(d, 0, src); !bytes.Equal(got, page) {
			t.Fatal("a relocation's source should read its bytes until its block is erased")
		}
		// Erase the source's block and churn the arena: the relocated pages
		// keep their bytes, and so does the alias, whose frame the erase must
		// not recycle.
		if _, err := d.EraseBlock(0, src); err != nil {
			t.Fatal(err)
		}
		if d.RawPage(src) != nil {
			t.Fatal("the erased source still holds a frame")
		}
		for pg := 0; pg < 4; pg++ {
			if _, err := programOne(d, 0, PPA{0, 0, 6, pg}, bytes.Repeat([]byte{0xEE}, ps)); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []PPA{same, other} {
			if got, _, _ := readOne(d, 0, p); !bytes.Equal(got, page) {
				t.Fatalf("relocated page %v lost its bytes to the erase of the source block", p)
			}
		}
		if !bytes.Equal(alias, page) {
			t.Fatal("an alias taken before the move lost its bytes to the erase of the source block")
		}
		if _, err := d.ProgramPages([]ProgramOp{{P: PPA{0, 0, 7, 0}, Move: true, From: PPA{9, 9, 9, 9}}}); err == nil {
			t.Fatal("relocation from an invalid address accepted")
		}
	})
}

// TestDiscardPages: a discard hands a dead page's frame back to the arena
// without a timeline booking or an operation count; the page stays programmed
// and reads as erased. A relocation's source keeps its frame, which is its
// destination's, and neither a second discard of a page nor its block's erase
// hands a frame out twice.
func TestDiscardPages(t *testing.T) {
	frameDevices(t, func(t *testing.T, d *Device, encrypted bool) {
		ps := d.geo.PageSize
		dead := []PPA{{0, 0, 0, 0}, {0, 0, 0, 1}, {2, 1, 3, 0}}
		src, dst := PPA{1, 0, 0, 0}, PPA{1, 0, 4, 0}
		for i, p := range append(append([]PPA(nil), dead...), src) {
			if _, err := programOne(d, 0, p, bytes.Repeat([]byte{byte(i + 1)}, ps)); err != nil {
				t.Fatal(err)
			}
		}
		page, _, _ := readOne(d, 0, src)
		if _, err := d.ProgramPages([]ProgramOp{{P: dst, Data: page, Move: true, From: src}}); err != nil {
			t.Fatal(err)
		}
		before := d.FrameStats()
		idle, r, p, e := d.NextIdle(), d.reads.Load(), d.programs.Load(), d.erases.Load()
		ws := []Word{d.lay.Word(dead[2]), ^Word(0), d.lay.Word(dead[0]), d.lay.Word(dead[1]), d.lay.Word(src), d.lay.Word(dead[0])}
		d.DiscardPages(ws)
		after := d.FrameStats()
		moved := 1 // a moved source is no owner, plain or not
		if encrypted {
			moved = 0 // a cipher copies, and its source is an ordinary dead page
		}
		if freed := len(dead) + 1 - moved; after.Held != before.Held-freed || after.Free != before.Free+freed || after.Lost != 0 {
			t.Fatalf("frames %+v before the discard, %+v after, want %d moved from held to free", before, after, freed)
		}
		if d.NextIdle() != idle || d.reads.Load() != r || d.programs.Load() != p || d.erases.Load() != e {
			t.Fatal("a discard booked a timeline or counted an operation")
		}
		for _, p := range dead {
			if d.RawPage(p) != nil || !d.Programmed(p) {
				t.Fatalf("%v: a discarded page must hold no frame and stay programmed", p)
			}
			if got, _, _ := readOne(d, 0, p); !bytes.Equal(got, make([]byte, ps)) {
				t.Fatalf("%v: a discarded page must read as erased", p)
			}
		}
		if _, err := programOne(d, 0, dead[0], page); err == nil {
			t.Fatal("a discarded page was programmed again before its block's erase")
		}
		if (d.RawPage(src) == nil) != encrypted {
			t.Fatal("a relocation's source gave up the frame its destination stores")
		}
		if got, _, _ := readOne(d, 0, dst); !bytes.Equal(got, page) {
			t.Fatal("the relocated page lost its bytes to the discard of its source")
		}
		for _, p := range []PPA{dead[0], src} {
			if _, err := d.EraseBlock(0, p); err != nil {
				t.Fatal(err)
			}
		}
		if fs := d.FrameStats(); fs.Lost != 0 || fs.Free != after.Free {
			t.Fatalf("erasing discarded pages' blocks: frames %+v, want %d free and none lost", fs, after.Free)
		}
		ph := newTestDevice(t, true)
		ph.DiscardPages(ws)
		if fs := ph.FrameStats(); fs != (FrameStats{}) {
			t.Fatalf("a phantom device's discard found frames: %+v", fs)
		}
	})
}

// TestUnwrittenBlockHoldsNoTable: the frame table is made a block at a time,
// at the block's first stored page, so reads, discards, erases and frame
// counts must take a block that never stored one — on a die that never stored
// any, and on a die that stored in another block — as holding no frames, and
// leave it without a table. An erase clears a written block's chunk and keeps
// it for the next program.
func TestUnwrittenBlockHoldsNoTable(t *testing.T) {
	frameDevices(t, func(t *testing.T, d *Device, _ bool) {
		ps := d.geo.PageSize
		written := PPA{1, 1, 2, 3}
		if _, err := programOne(d, 0, written, bytes.Repeat([]byte{7}, ps)); err != nil {
			t.Fatal(err)
		}
		blank := []PPA{
			{0, 0, 5, 1},                // a die that stored nothing
			{1, 1, 5, 1},                // another block of the written die
			{1, 1, 2, written.Page + 1}, // the written block's next page
		}
		ws := make([]Word, len(blank))
		for i, p := range blank {
			ws[i] = d.lay.Word(p)
		}
		out := make([][]byte, len(ws))
		if _, err := d.ReadWords(0, ws, out); err != nil {
			t.Fatal(err)
		}
		for i, p := range blank {
			if !bytes.Equal(out[i], make([]byte, ps)) || d.RawPage(p) != nil {
				t.Fatalf("%v: a page never written must read as erased and hold no frame", p)
			}
		}
		d.DiscardPages(ws)
		for _, p := range blank[:2] {
			if _, err := d.EraseBlock(0, p); err != nil {
				t.Fatal(err)
			}
		}
		if fs := d.FrameStats(); fs != (FrameStats{Held: 1}) {
			t.Fatalf("frames %+v, want the one written page's", fs)
		}
		if s := &d.shards[d.die(blank[0])]; s.data != nil {
			t.Fatal("a die that stored nothing has a frame table")
		}
		s := &d.shards[d.die(written)]
		if s.data[blank[1].Block] != nil {
			t.Fatal("a block that stored nothing has a chunk")
		}
		if _, err := d.EraseBlock(0, written); err != nil {
			t.Fatal(err)
		}
		chunk := s.data[written.Block]
		if chunk == nil || d.RawPage(written) != nil {
			t.Fatal("an erase must clear its block's chunk and keep it")
		}
		if fs := d.FrameStats(); fs != (FrameStats{Free: 1}) {
			t.Fatalf("frames %+v after the erase, want the one frame free", fs)
		}
		if _, err := programOne(d, 0, written, bytes.Repeat([]byte{9}, ps)); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := readOne(d, 0, written); got[0] != 9 || &s.data[written.Block][0] != &chunk[0] {
			t.Fatal("a program after the erase must store into the kept chunk")
		}
	})
}

// TestFramesAcrossChunks: frames carved across a chunk boundary are whole
// (PageSize long, with no capacity past it), disjoint and at PageSize
// offsets; where chunks are mapped, each but the first starts at a huge page.
// The arena knows each by its number, a buffer that is not one of its frames
// is neither stored in place nor taken back, and Close releases every chunk,
// once. The odd page size leaves a chunk's tail unused.
func TestFramesAcrossChunks(t *testing.T) {
	for _, ps := range []int{4096, 360} {
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			geo := testGeo()
			geo.PageSize = ps
			d, err := NewDevice(geo, TLCTiming(), false)
			if err != nil {
				t.Fatal(err)
			}
			per := d.frames.perChunk
			frames := make([][]byte, per+2) // all of one chunk and two of the next
			for i := range frames {
				f := d.Frame()
				if len(f) != ps || cap(f) != ps {
					t.Fatalf("frame %d: len %d cap %d, want a whole %d B frame", i, len(f), cap(f), ps)
				}
				if n := d.frames.number(f); n != frameNo(i/per<<d.frames.shift+i%per+1) || &d.frames.dir.Load().frame(n)[0] != &f[0] {
					t.Fatalf("frame %d is numbered %d", i, n)
				}
				for j := range f {
					f[j] = byte(i)
				}
				frames[i] = f
			}
			base := func(i int) uintptr { return uintptr(unsafe.Pointer(&frames[i][0])) }
			for i := range frames {
				chunk := base(i / per * per)
				if off := base(i) - chunk; off != uintptr(i%per*ps) {
					t.Fatalf("frame %d lies %d B into its chunk, want %d", i, off, i%per*ps)
				}
				if zeromap.Mapped && i >= per && chunk%zeromap.HugePage != 0 {
					t.Fatalf("frame %d's chunk starts at %#x, not at a huge page", i, chunk)
				}
				if !bytes.Equal(frames[i], bytes.Repeat([]byte{byte(i)}, ps)) {
					t.Fatalf("frame %d shares bytes with another", i)
				}
			}

			// The first frame of the second chunk is stored in place; a
			// page-sized buffer of the heap and a frame's shifted window are
			// copied, and Recycle takes back neither.
			last := frames[per]
			foreign := bytes.Repeat([]byte{0xEE}, ps)
			for _, f := range [][]byte{foreign, unsafe.Slice(&frames[0][1], ps), frames[0][1:]} {
				d.Recycle(f)
			}
			if fs := d.FrameStats(); fs.Free != 0 {
				t.Fatalf("Recycle took back %d buffers that are not frames of the device", fs.Free)
			}
			ops := []ProgramOp{
				{P: PPA{0, 0, 0, 0}, Data: last, Owned: true},
				{P: PPA{0, 0, 0, 1}, Data: foreign, Owned: true},
			}
			if _, err := d.ProgramPages(ops); err != nil {
				t.Fatal(err)
			}
			if raw := d.RawPage(ops[0].P); &raw[0] != &last[0] {
				t.Fatal("a frame of the second chunk was not stored in place")
			}
			if raw := d.RawPage(ops[1].P); &raw[0] == &foreign[0] || !bytes.Equal(raw, foreign) {
				t.Fatal("a heap buffer handed over as Owned was stored in place, or not copied")
			}

			d.timelines.Release() // so that what Close releases is the frames'
			r0 := zeromap.Released()
			d.Close()
			chunks := int64(len(d.frames.tables))
			if got, want := zeromap.Released()-r0, chunks*int64(per*ps); chunks != 2 || got != want {
				t.Fatalf("Close released %d B for %d chunks, want %d B for 2", got, chunks, want)
			}
			r1 := zeromap.Released()
			d.Close()
			if r2 := zeromap.Released(); r2 != r1 {
				t.Fatalf("a second Close released %d B more", r2-r1)
			}
		})
	}
}

// TestFramesAcrossChunksConcurrently: the arena grows while other dies store
// and read frames — four writers, one a die, draw frames that cross a chunk
// every few pages and program them, and after each program read every page
// of the device, so a reader meets frame numbers of chunks another die
// carved after its read began (run it under -race).
func TestFramesAcrossChunksConcurrently(t *testing.T) {
	geo := Geometry{Channels: 2, Banks: 2, BlocksPerBank: 2, PagesPerBlock: 8, PageSize: 256 << 10}
	d, err := NewDevice(geo, TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	dies := geo.Channels * geo.Banks
	fill := func(p PPA) byte { return byte((p.Channel*geo.Banks+p.Bank)*31 + p.Block*7 + p.Page) }
	all := make([]Word, geo.TotalPages())
	for i := range all {
		all[i] = d.lay.Word(FromLinear(geo, int64(i)))
	}
	errs := make(chan error, dies)
	for die := 0; die < dies; die++ {
		go func() {
			ch, bank := die/geo.Banks, die%geo.Banks
			for blk := 0; blk < geo.BlocksPerBank; blk++ {
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					p := PPA{ch, bank, blk, pg}
					f := d.Frame()
					for i := range f {
						f[i] = fill(p)
					}
					if _, err := d.ProgramPages([]ProgramOp{{P: p, Data: f, Owned: true}}); err != nil {
						errs <- err
						return
					}
					out := make([][]byte, len(all))
					if _, err := d.ReadWords(0, all, out); err != nil {
						errs <- err
						return
					}
					for i, pg := range out {
						q := FromLinear(geo, int64(i))
						if pg[0] != 0 && (pg[0] != fill(q) || pg[len(pg)-1] != fill(q)) || q == p && &pg[0] != &f[0] {
							errs <- fmt.Errorf("%v reads another frame or other bytes", q)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for range dies {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if fs := d.FrameStats(); fs.Held != int(geo.TotalPages()) || fs.Lost != 0 {
		t.Fatalf("frames %+v, want %d held and none lost", fs, geo.TotalPages())
	}
	if want := int(geo.TotalPages()) / d.frames.perChunk; len(d.frames.tables) != want {
		t.Fatalf("%d chunks carved, want %d", len(d.frames.tables), want)
	}
}
