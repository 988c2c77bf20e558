package stl

import (
	"bytes"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

// TestSegmentLeaseOutlivesRelocation pins the alias contract now that a frame
// can outlive its address (nvm.ReadWords): segments lent to a
// ReadPartitionSegments callback stay good until it returns, whatever GC does
// meanwhile. Space A is aged first, so some of its pages sit in frames that
// relocations already carried away from the blocks they were programmed in;
// then a reader holds a lease on all of A while a writer on space B drives
// collections that relocate pages — B's, and A's too, since a collector takes
// no space's lock — and erase blocks, whose frames B's next writes are
// assembled in. None of the frames lent may be recycled or written: the
// leased bytes equal the mirror when the lease ends, and under -race any
// write into a lent frame is reported as one.
func TestSegmentLeaseOutlivesRelocation(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig()) // the writer collects inline
	if err != nil {
		t.Fatal(err)
	}
	// float32 spaces in 32x32 building blocks. A is small; B is what fills
	// the array.
	type client struct {
		v          *View
		rows, cols int64
		img        []byte
	}
	rng := rand.New(rand.NewSource(61))
	open := func(rows, cols int64) *client {
		s, err := st.CreateSpace(4, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(s, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		c := &client{v: v, rows: rows, cols: cols, img: fillRandom(rng, rows*cols*4)}
		if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{rows, cols}, c.img); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := open(64, 64), open(256, 128)
	// Quarter-block overwrites leave victims with live pages to relocate.
	const sub = 16
	tile := make([]byte, sub*sub*4)
	overwrite := func(c *client, rng *rand.Rand) error {
		rng.Read(tile)
		coord := []int64{rng.Int63n(c.rows / sub), rng.Int63n(c.cols / sub)}
		if _, _, err := st.WritePartition(0, c.v, coord, []int64{sub, sub}, tile); err != nil {
			return err
		}
		pasteTile(c.img, c.cols, 4, coord, []int64{sub, sub}, tile)
		return nil
	}
	for k := 0; k < 2000 && st.GCReport().PagesRelocated < 64; k++ {
		for _, c := range []*client{a, b} {
			if err := overwrite(c, rng); err != nil {
				t.Fatal(err)
			}
		}
	}
	aged := st.GCReport()
	if aged.PagesRelocated < 64 {
		t.Fatalf("ageing relocated too little: %+v", aged)
	}

	leased := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		<-leased
		wrng := rand.New(rand.NewSource(62))
		var err error
		for k := 0; k < 4000 && err == nil; k++ {
			if rep := st.GCReport(); rep.PagesRelocated > aged.PagesRelocated+32 && rep.Erases > aged.Erases+8 {
				break
			}
			err = overwrite(b, wrng)
		}
		writerDone <- err
	}()
	got := make([]byte, len(a.img))
	_, _, err = st.ReadPartitionSegments(0, a.v, []int64{0, 0}, []int64{a.rows, a.cols}, func(want int64, segs []Segment) error {
		Gather(got, segs)
		if !bytes.Equal(got, a.img) {
			t.Error("lease does not match the mirror to begin with")
		}
		close(leased)
		werr := <-writerDone
		for i := range got {
			got[i] = 0xFF
		}
		Gather(got, segs)
		if !bytes.Equal(got, a.img) {
			t.Error("leased segments changed while GC relocated and erased for another space")
		}
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	during := st.GCReport()
	if during.PagesRelocated <= aged.PagesRelocated+32 || during.Erases <= aged.Erases+8 {
		t.Fatalf("the lease saw too little collection: %+v -> %+v", aged, during)
	}
	for name, c := range map[string]*client{"A": a, "B": b} {
		got, _, _, err := st.ReadPartition(0, c.v, []int64{0, 0}, []int64{c.rows, c.cols})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.img) {
			t.Fatalf("space %s diverged from its mirror", name)
		}
	}
}
