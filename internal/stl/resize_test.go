package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

func TestResizeGrowPreservesData(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 64, 64)
	v := mustView(t, s, 64, 64)
	rng := rand.New(rand.NewSource(1))
	data := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResizeSpace(0, s.ID(), 128); err != nil {
		t.Fatal(err)
	}
	if s.Dims()[0] != 128 {
		t.Fatalf("dims after grow = %v", s.Dims())
	}
	// Views must be reopened after a restructure (volumes changed).
	v2 := mustView(t, s, 128, 64)
	got, _, _, err := st.ReadPartition(0, v2, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("grow lost existing data")
	}
	// The fresh region reads zeros and accepts writes.
	fresh, _, _, err := st.ReadPartition(0, v2, []int64{1, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(fresh) {
		t.Fatal("fresh region is not zero")
	}
	patch := fillRandom(rng, 64*64*4)
	if _, _, err := st.WritePartition(0, v2, []int64{1, 0}, []int64{64, 64}, patch); err != nil {
		t.Fatal(err)
	}
	got, _, _, err = st.ReadPartition(0, v2, []int64{1, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, patch) {
		t.Fatal("write into grown region failed")
	}
}

func TestResizeShrinkReleasesUnits(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 128, 64)
	v := mustView(t, s, 128, 64)
	rng := rand.New(rand.NewSource(2))
	data := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{128, 64}, data); err != nil {
		t.Fatal(err)
	}
	before := st.UsedPages()
	if _, err := st.ResizeSpace(0, s.ID(), 64); err != nil {
		t.Fatal(err)
	}
	if st.UsedPages() >= before {
		t.Fatalf("shrink did not release units: %d -> %d", before, st.UsedPages())
	}
	v2 := mustView(t, s, 64, 64)
	got, _, _, err := st.ReadPartition(0, v2, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:64*64*4]) {
		t.Fatal("shrink damaged surviving data")
	}
	// Re-growing exposes zeros, not the old contents.
	if _, err := st.ResizeSpace(0, s.ID(), 128); err != nil {
		t.Fatal(err)
	}
	v3 := mustView(t, s, 128, 64)
	tail, _, _, err := st.ReadPartition(0, v3, []int64{1, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(tail) {
		t.Fatal("re-grown region leaked stale data")
	}
}

// TestResizeShrinkThenGrowReadsZero: the rows a shrink cuts off inside a
// block row — 97..127 of a 128-row space of 32-row blocks, whose grid keeps
// its four block rows — read zero once a grow brings them back, as the model
// says, whether they were programmed, staged (§4.4), compressed or cached;
// the rows below the cut keep their bytes.
func TestResizeShrinkThenGrowReadsZero(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"plain", nil},
		{"write-buffered", func(c *Config) { c.WriteBuffering = true }},
		{"compressed", func(c *Config) { c.Compress = true }},
		{"cached", func(c *Config) { c.CacheBytes = 1 << 20 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), false)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			sc := newScript(t, dev, cfg)
			rng := rand.New(rand.NewSource(97))
			whole := []int64{128, 128}
			// One space is written whole, every page programmed; the other only
			// in 8x8 tiles astride the cut, which write buffering stages.
			for _, tiles := range []bool{false, true} {
				c := sc.space(t, 4, whole, whole)
				if !tiles {
					sc.mustWrite(t, 0, c, []int64{0, 0}, whole, fillRandom(rng, 128*128*4))
				}
				for r := int64(11); tiles && r < 14; r++ { // rows 88..111
					for col := int64(0); col < 16; col += 5 {
						sc.mustWrite(t, 0, c, []int64{r, col}, []int64{8, 8}, fillRandom(rng, 8*8*4))
					}
				}
				sc.read(t, 0, c, []int64{0, 0}, whole) // the cached configuration now holds the blocks
				id := c.v.space.ID()
				for _, rows := range []int64{97, 128} {
					if _, err := sc.st.ResizeSpace(0, id, rows); err != nil {
						t.Fatal(err)
					}
					if err := sc.model.Resize(uint32(id), rows); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if c.m, err = sc.model.Open(uint32(id), whole); err != nil {
					t.Fatal(err)
				}
				c.v = mustView(t, c.v.space, whole...)
				sc.read(t, 0, c, []int64{0, 0}, whole)
			}
		})
	}
}

func TestResizeValidation(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	if _, err := st.ResizeSpace(0, 999, 10); err == nil {
		t.Error("resize of unknown space accepted")
	}
	if _, err := st.ResizeSpace(0, s.ID(), 0); err == nil {
		t.Error("resize to zero accepted")
	}
	// Resizing within the same block row is a metadata-only change.
	if _, err := st.ResizeSpace(0, s.ID(), 60); err != nil {
		t.Fatal(err)
	}
	if s.Dims()[0] != 60 {
		t.Fatalf("dims = %v", s.Dims())
	}
}

func TestResize1DSpace(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 2048)
	v := mustView(t, s, 2048)
	rng := rand.New(rand.NewSource(3))
	data := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0}, []int64{2048}, data); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ResizeSpace(0, s.ID(), 4096); err != nil {
		t.Fatal(err)
	}
	v2 := mustView(t, s, 4096)
	got, _, _, err := st.ReadPartition(0, v2, []int64{0}, []int64{2048})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("1-D grow lost data")
	}
}
