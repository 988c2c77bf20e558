package stl

import (
	"bytes"
	"math/rand"
	"testing"

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
			for i := 0; i < 64; i++ {
				dev.Recycle(bytes.Repeat([]byte{0xFF}, geo.PageSize))
			}
			cfg := DefaultConfig()
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			st, err := New(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
				page, _, err := dev.ReadPage(0, p)
				if err != nil {
					t.Fatal(err)
				}
				if at := bytes.IndexByte(page, 0xFF); at >= 0 {
					t.Fatalf("page %v holds a stale 0xff at byte %d", p, at)
				}
			}
			if programmed == 0 {
				t.Fatal("nothing was programmed")
			}
		})
	}
}
