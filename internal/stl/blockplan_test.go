package stl

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// oneScratch routes every request of st through the one requestScratch the
// test holds. sync.Pool does not promise to keep what it is given — the race
// detector's Put drops one value in four — so the scratch is lent the other
// way round: the pool is emptied and its New hands out the test's scratch,
// once per request. What the request puts back is drained after it and
// counted when it is the test's scratch: a request that leaked its scratch
// would never return it, while the detector only drops some. The test's own
// reference is the scratch either way. A pooled value also survives only one
// garbage collection (the pool's victim cache), and a request that allocates
// enough to run two would lose the scratch and read as a leak, so collection
// is off while a request runs.
type oneScratch struct {
	rs *requestScratch
	// requests run, how many took the test's scratch, how many put it back
	lent, shared, returned int
}

func (o *oneScratch) run(st *STL, op func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	st.scratch.New = nil
	for st.scratch.Get() != nil {
	}
	handed := false
	st.scratch.New = func() any {
		if handed {
			return nil // a second scratch within one request is the request's own
		}
		handed = true
		o.shared++
		return o.rs
	}
	op()
	st.scratch.New = nil
	for got := st.scratch.Get(); got != nil; got = st.scratch.Get() {
		if got == o.rs {
			o.returned++
		}
	}
	o.lent++
}

// TestBlockPlanTablesAcrossSpaces: the block plan's page tables are dense,
// as long as a block has pages, and live in a scratch pooled across spaces.
// One STL holds a space of 512-page blocks and one of 64-page blocks;
// interleaved reads and writes all go through a single scratch — a column
// whose rows alternate between two blocks (every extent misses the last-hit
// memo), requests on the small blocks straight after the large ones and back,
// and a write that runs out of capacity after its plan is built — and every
// read returns the model's bytes (the golden trace's, for the space the failed
// write left part-written). A table left dirty by putScratch, or reused at the
// previous space's length, shows as wrong bytes or an index out of range.
func TestBlockPlanTablesAcrossSpaces(t *testing.T) {
	// BB_min = 16 channels x 512 B = 8 KiB; with multiplier 4 a 2-D float32
	// block is 256x256 (512 pages) and a 1-D one 8192 elements (64 pages).
	geo := nvm.Geometry{Channels: 16, Banks: 2, BlocksPerBank: 4, PagesPerBlock: 64, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BBMultiplier = 4
	sc := newScript(t, dev, cfg)
	spaces := []*checked{
		sc.space(t, 4, []int64{512, 512}, []int64{512, 512}),
		sc.space(t, 4, []int64{32768}, []int64{32768}),
		sc.space(t, 4, []int64{1024, 1024}, []int64{1024, 1024}),
	}
	if b, s := spaces[0].v.space.pagesPerBB, spaces[1].v.space.pagesPerBB; b != 512 || s != 64 {
		t.Fatalf("blocks have %d and %d pages, the test wants 512 and 64", b, s)
	}

	const big, small, huge = 0, 1, 2
	one := oneScratch{rs: &requestScratch{}}
	sc.lend = func(request func()) { one.run(sc.st, request) }
	rng := rand.New(rand.NewSource(16))
	var at sim.Time
	partWritten := false // the huge space, after its failed write
	write := func(which int, coord, sub []int64, bytesLen int) (err error) {
		data := make([]byte, bytesLen)
		rng.Read(data)
		at, err = sc.write(t, at, spaces[which], coord, sub, data)
		return err
	}
	read := func(which int, coord, sub []int64) {
		t.Helper()
		if partWritten && which == huge {
			at = sc.readPinned(t, at, spaces[which], coord, sub)
		} else {
			at = sc.read(t, at, spaces[which], coord, sub)
		}
	}
	// A 48-wide column at columns 240..287 straddles the two block columns:
	// each of its 512 rows is an extent in one block, then one in the other.
	column := func() { read(big, []int64{0, 5}, []int64{512, 48}) }

	// The scratch's first four tables are made for 64-page blocks; the large
	// blocks below land on the same plan entries and need them re-made.
	if err := write(small, []int64{0}, []int64{32768}, 32768*4); err != nil {
		t.Fatal(err)
	}
	read(small, []int64{0}, []int64{32768})
	for round := 0; round < 3; round++ {
		// Large-block requests need tables of 512 entries, and fill them.
		if err := write(big, []int64{int64(round % 2), 0}, []int64{256, 512}, 256*512*4); err != nil {
			t.Fatal(err)
		}
		column()
		// Small-block requests reuse the same tables at 64 entries; page
		// numbers 0..63 of the large blocks above were all occupied.
		if err := write(small, []int64{int64(round)}, []int64{8192 + 100}, (8192+100)*4); err != nil {
			t.Fatal(err)
		}
		read(small, []int64{0}, []int64{32768})
		// Back to 512-entry tables: entries 64..511 must have stayed clean.
		read(big, []int64{1, 1}, []int64{256, 256})
		column()
		// A sub-page overwrite: the write plan's stage lookup on both sizes.
		if err := write(big, []int64{3, 7}, []int64{40, 40}, 40*40*4); err != nil {
			t.Fatal(err)
		}
		if err := write(small, []int64{5}, []int64{3000}, 3000*4); err != nil {
			t.Fatal(err)
		}
	}
	// The third space is larger than the device: a whole-space write plans
	// 8192 pages over 16 blocks and runs out of units part-way through
	// placing them. The scratch goes back with every table it filled.
	if err := write(huge, []int64{0, 0}, []int64{1024, 1024}, 1024*1024*4); !errors.Is(err, ErrCapacity) {
		t.Fatalf("oversized write: got %v, want ErrCapacity", err)
	}
	partWritten = true
	column()
	read(small, []int64{0}, []int64{32768})
	read(big, []int64{0, 0}, []int64{512, 512})
	read(huge, []int64{0, 0}, []int64{300, 1024})

	if one.shared != one.lent {
		t.Fatalf("only %d of %d requests ran on the shared scratch", one.shared, one.lent)
	}
	floor := one.lent
	if raceEnabled {
		floor /= 2 // the detector drops a quarter of Puts; losing half is a leak
	}
	if one.returned < floor {
		t.Fatalf("only %d of %d requests put the shared scratch back", one.returned, one.lent)
	}
	sc.golden(t, "TestBlockPlanTablesAcrossSpaces")
}
