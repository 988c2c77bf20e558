package nvm

import (
	"math/bits"
	"strings"
	"testing"
)

// widths are the field widths the test expects of g's words, page first:
// each field as wide as its largest value.
func widths(g Geometry) [4]int {
	w := func(n int) int { return bits.Len(uint(n - 1)) }
	return [4]int{w(g.PagesPerBlock), w(g.BlocksPerBank), w(g.Banks), w(g.Channels)}
}

// pack is the test's own packing of fields (page, block, bank, channel) at
// widths w, in 64 bits so that a field too wide for its place shows.
func pack(w [4]int, f [4]uint64) uint64 {
	var x uint64
	for i := 3; i >= 0; i-- {
		x = x<<w[i] | f[i]
	}
	return x
}

// FuzzPageWord: over random geometries, a layout exists exactly when the four
// fields fit 32 bits with the all-ones word spare; and then PPA -> Word -> PPA
// is the identity, the word is the test's own packing, Linear, Die and
// DieIndex agree with the PPA's, and a word with any field out of range —
// one that fits its width but not the geometry, or bits above the channel —
// is not Valid.
func FuzzPageWord(f *testing.F) {
	for _, g := range []Geometry{
		{Channels: 32, Banks: 1, BlocksPerBank: 9, PagesPerBlock: 256, PageSize: 4096}, // aged_write
		{Channels: 32, Banks: 8, BlocksPerBank: 4, PagesPerBlock: 256, PageSize: 4096}, // the prototype's smallest
		{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 16, PageSize: 512},
		{Channels: 3, Banks: 1, BlocksPerBank: 48, PagesPerBlock: 100, PageSize: 512},
		{Channels: 8, Banks: 8, BlocksPerBank: 65535, PagesPerBlock: 256, PageSize: 4096},
		{Channels: 32, Banks: 8, BlocksPerBank: 65536, PagesPerBlock: 256, PageSize: 4096},
	} {
		f.Add(uint32(g.Channels), uint32(g.Banks), uint32(g.BlocksPerBank), uint32(g.PagesPerBlock), uint32(7), uint32(5), uint32(3), uint32(99), uint32(0xdeadbeef))
	}
	f.Fuzz(func(t *testing.T, ch, bk, blocks, pages, c, b, blk, pg, raw uint32) {
		g := Geometry{
			Channels:      1 + int(ch%512),
			Banks:         1 + int(bk%32),
			BlocksPerBank: 1 + int(blocks%(1<<17)),
			PagesPerBlock: 1 + int(pages%2048),
			PageSize:      512,
		}
		w := widths(g)
		l, err := NewLayout(g)
		if fits := w[0]+w[1]+w[2]+w[3] <= 32 && g.TotalPages() < 1<<32; (err == nil) != fits {
			t.Fatalf("%v: NewLayout err = %v, want a layout: %v", g, err, fits)
		}
		if err != nil {
			return
		}
		lim := [4]uint64{uint64(g.PagesPerBlock), uint64(g.BlocksPerBank), uint64(g.Banks), uint64(g.Channels)}
		p := PPA{Channel: int(c) % g.Channels, Bank: int(b) % g.Banks, Block: int(blk) % g.BlocksPerBank, Page: int(pg) % g.PagesPerBlock}
		fields := [4]uint64{uint64(p.Page), uint64(p.Block), uint64(p.Bank), uint64(p.Channel)}
		word := l.Word(p)
		switch {
		case uint64(word) != pack(w, fields):
			t.Fatalf("%v: %v packs to %#x, want %#x", g, p, word, pack(w, fields))
		case l.PPA(word) != p:
			t.Fatalf("%v: %v -> %#x -> %v", g, p, word, l.PPA(word))
		case !l.Valid(word):
			t.Fatalf("%v: the word of %v is not valid", g, p)
		case l.Linear(word) != p.Linear(g):
			t.Fatalf("%v: %v has Linear %d, its word %d", g, p, p.Linear(g), l.Linear(word))
		case l.Die(word) != p.Channel*g.Banks+p.Bank || l.DieIndex(word) != int64(p.Block)*int64(g.PagesPerBlock)+int64(p.Page):
			t.Fatalf("%v: %v is die %d index %d by its word", g, p, l.Die(word), l.DieIndex(word))
		}
		// Each field in turn out of range, where its width leaves room.
		for i := range fields {
			if bad := lim[i] + uint64(raw)%(1<<w[i]); bad < 1<<w[i] {
				f := fields
				f[i] = bad
				if x := Word(pack(w, f)); l.Valid(x) {
					t.Fatalf("%v: field %d = %d (of %d) in %#x is valid", g, i, bad, lim[i], x)
				}
			}
		}
		// Bits above the channel field.
		if total := w[0] + w[1] + w[2] + w[3]; total < 32 {
			if x := word | Word(raw)<<total; x != word && l.Valid(x) {
				t.Fatalf("%v: %#x, %#x with bits above the channel, is valid", g, word, x)
			}
		}
		// A raw word is valid exactly when its fields, decoded at the widths,
		// are a valid PPA; and then it is that PPA's word.
		var f [4]uint64
		for i, x := 0, uint64(raw); i < 4; i++ {
			f[i] = x & (1<<w[i] - 1)
			x >>= w[i]
			if i == 3 {
				f[3] |= x << w[3] // what is left above belongs to the channel
			}
		}
		q := PPA{Channel: int(f[3]), Bank: int(f[2]), Block: int(f[1]), Page: int(f[0])}
		if l.Valid(Word(raw)) != q.Valid(g) {
			t.Fatalf("%v: %#x decodes to %v, Valid %v", g, raw, q, l.Valid(Word(raw)))
		}
		if q.Valid(g) && (l.Word(q) != Word(raw) || l.PPA(Word(raw)) != q) {
			t.Fatalf("%v: %#x decodes to %v, which packs to %#x", g, raw, q, l.Word(q))
		}
	})
}

// TestNewDeviceRefusesWideGeometry: a geometry whose page addresses take more
// than 32 bits, or all 32 with the all-ones word in use, builds no device —
// and the prototype geometry one block short of that does get a layout.
func TestNewDeviceRefusesWideGeometry(t *testing.T) {
	for _, g := range []Geometry{
		{Channels: 32, Banks: 8, BlocksPerBank: 65537, PagesPerBlock: 256, PageSize: 4096}, // 33 bits
		{Channels: 32, Banks: 8, BlocksPerBank: 65536, PagesPerBlock: 256, PageSize: 4096}, // 2³² pages
		{Channels: 1 << 20, Banks: 1, BlocksPerBank: 4096, PagesPerBlock: 2, PageSize: 512},
	} {
		if _, err := NewDevice(g, TLCTiming(), true); err == nil || !strings.Contains(err.Error(), "page word") {
			t.Errorf("%v: NewDevice err = %v, want the page word refused", g, err)
		}
	}
	g := Geometry{Channels: 32, Banks: 8, BlocksPerBank: 65535, PagesPerBlock: 256, PageSize: 4096}
	if _, err := NewLayout(g); err != nil {
		t.Errorf("%v: %v", g, err)
	}
}

// TestReadWordsRejectsInvalid: a batch holding a word with a field out of
// range is refused whole — no page sensed, no timeline booked — and a valid
// batch reads what ReadPages reads for the same addresses.
func TestReadWordsRejectsInvalid(t *testing.T) {
	g := Geometry{Channels: 4, Banks: 3, BlocksPerBank: 9, PagesPerBlock: 12, PageSize: 512}
	d, err := NewDevice(g, TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	l := d.Layout()
	p := PPA{Channel: 2, Bank: 1, Block: 8, Page: 11}
	if _, err := programOne(d, 0, p, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d.ResetTimeline()
	good := l.Word(p)
	// Page 12 of 12, block 12 of 9, bank 3 of 3, bits above the channel, all.
	for _, bad := range []Word{good + 1, good + 4<<4, good + 2<<8, Word(4) << 12, ^Word(0)} {
		if l.Valid(bad) {
			t.Fatalf("%#x is valid", bad)
		}
		reads, _, _ := d.Counters()
		if _, err := d.ReadWords(0, []Word{good, bad}, make([][]byte, 2)); err == nil {
			t.Fatalf("a batch with %#x read", bad)
		}
		if r, _, _ := d.Counters(); r != reads || d.NextIdle() != 0 {
			t.Fatalf("the refused batch with %#x sensed %d pages, timelines busy to %v", bad, r-reads, d.NextIdle())
		}
	}
	got := make([][]byte, 1)
	if _, err := d.ReadWords(0, []Word{good}, got); err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 1)
	if _, err := d.ReadPages(0, []PPA{p}, want); err != nil {
		t.Fatal(err)
	}
	if &got[0][0] != &want[0][0] || got[0][2] != 3 {
		t.Fatal("ReadWords and ReadPages lend different frames for one page")
	}
}
