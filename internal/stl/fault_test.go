package stl

import (
	"errors"
	"math/rand"
	"testing"

	"nds/internal/nvm"
)

func newFaultSTL(t *testing.T, geo nvm.Geometry, cfg Config, plan nvm.FaultPlan) *STL {
	t.Helper()
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(plan)
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFaultProgramRetryPreservesData: injected program faults are absorbed by
// relocation — the data reads back intact and the recovery counters record
// the work.
func TestFaultProgramRetryPreservesData(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 16, PagesPerBlock: 8, PageSize: 512}
		cfg := DefaultConfig()
		cfg.OverProvision = 0.2
		st := newFaultSTL(t, geo, cfg, nvm.FaultPlan{Seed: 9, ProgramFailEvery: 12})

		s, err := st.CreateSpace(4, []int64{160, 160})
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(s, []int64{160, 160})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		data := fillRandom(rng, s.Bytes())
		_, stats, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, data)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ProgramRetries == 0 {
			t.Fatal("no program retries recorded in RequestStats despite fault plan")
		}

		got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{160, 160})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("byte %d corrupted across program-fault recovery", i)
			}
		}
		r := st.Reliability()
		if r.ProgramFaults == 0 || r.ProgramRetries == 0 || r.RetiredBlocks == 0 {
			t.Fatalf("recovery counters empty: %+v", r)
		}
		if r.ProgramRetries != r.ProgramFaults {
			t.Fatalf("%d faults but %d successful relocations", r.ProgramFaults, r.ProgramRetries)
		}
		if r.RetiredPages != r.RetiredBlocks*int64(geo.PagesPerBlock) {
			t.Fatalf("retired %d blocks but %d pages", r.RetiredBlocks, r.RetiredPages)
		}
		if r.EffectivePages > r.MaxPages {
			t.Fatalf("effective capacity %d above budget %d", r.EffectivePages, r.MaxPages)
		}
	})
}

// TestProgramRetryExhaustionFault: when every program attempt fails, recovery
// gives up with ErrMedia instead of looping forever, and the space it wrote
// is left with no page bound and the device with no unit live.
func TestProgramRetryExhaustionFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		geo  nvm.Geometry
		seed int64
		n    int64
	}{
		{"batched", nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}, 3, 32},
		{"relocated", nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}, 1, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newFaultSTL(t, tc.geo, DefaultConfig(), nvm.FaultPlan{Seed: tc.seed, ProgramFailEvery: 1})
			s, err := st.CreateSpace(4, []int64{tc.n, tc.n})
			if err != nil {
				t.Fatal(err)
			}
			v, err := NewView(s, []int64{tc.n, tc.n})
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, s.Bytes())
			_, _, err = st.WritePartition(0, v, []int64{0, 0}, []int64{tc.n, tc.n}, data)
			if !errors.Is(err, ErrMedia) {
				t.Fatalf("want ErrMedia after retry exhaustion, got %v", err)
			}
			for g := int64(0); g < prod(s.grid); g++ {
				if blk := st.blockAt(s, g, false); blk != nil {
					for i := range blk.pages {
						if blk.pages[i].load().allocated() {
							t.Fatalf("block %d page %d is bound though no program landed", g, i)
						}
					}
				}
			}
			if st.UsedPages() != 0 {
				t.Fatalf("%d units live after no program landed", st.UsedPages())
			}
		})
	}
}

// TestFaultEraseRetiresVictimDuringGC: a GC erase that faults retires the
// victim block in place — no error surfaces, the data survives, and the
// retired block never rejoins the free pool.
func TestFaultEraseRetiresVictimDuringGC(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	st := newFaultSTL(t, geo, DefaultConfig(), nvm.FaultPlan{Seed: 17, EraseFailEvery: 8})

	s, err := st.CreateSpace(4, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(s)
	rng := rand.New(rand.NewSource(31))
	whole := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, whole); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), []int64{0, 0}, []int64{160, 160}, whole)

	for i := 0; i < 40; i++ {
		sub := []int64{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		coord := []int64{rng.Int63n(160 / sub[0]), rng.Int63n(160 / sub[1])}
		_, n, err := v.PartitionShape(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		data := fillRandom(rng, n*4)
		if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		ref.scatter(v.Dims(), coord, sub, data)
	}

	r := st.Reliability()
	if r.EraseFaults == 0 {
		t.Fatal("no erase faults injected despite plan and GC churn")
	}
	if r.RetiredBlocks == 0 {
		t.Fatal("erase faults retired no blocks")
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.gather(v.Dims(), []int64{0, 0}, []int64{160, 160})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted by erase-fault retirement", i)
		}
	}
}

// TestFaultRetiredVictimGivesBackFrames: a victim whose erase faults is
// retired and never erased, so the erase cannot return the frames of its
// dead pages; retirement must. One die of eight-page blocks, every second
// erase faulting, is churned by one-page overwrites until an overwrite's own
// collection picks the block of the unit it replaces and retires it: that
// unit's discard then finds the block's generation moved and leaves its frame
// to the retirement. After every write the bytes match the model and the
// device holds a frame for each live unit and no other, with none owned twice.
func TestFaultRetiredVictimGivesBackFrames(t *testing.T) {
	geo := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 24, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(nvm.FaultPlan{Seed: 6, EraseFailEvery: 2})
	cfg := DefaultConfig()
	cfg.OverProvision = 0.4
	sc := newScript(t, dev, cfg)
	sc.after = func() { auditFrames(t, sc.st, 0) }
	const n = 64
	c := sc.space(t, 4, []int64{n * 128}, []int64{n * 128})
	if c.v.space.pagesPerBB != 1 {
		t.Fatalf("building blocks of %d pages, the test wants 1", c.v.space.pagesPerBB)
	}
	rng := rand.New(rand.NewSource(6))
	at := sc.mustWrite(t, 0, c, []int64{0}, []int64{n * 128}, fillRandom(rng, n*512))
	d := sc.st.die(0, 0)
	retiredUnder := false
	for i := 0; i < 400 && !retiredUnder; i++ {
		pg := rng.Int63n(n)
		b := sc.st.lay.Block(sc.st.blockAt(c.v.space, pg, false).pages[0].load().word())
		gen := d.gen[b]
		at = sc.mustWrite(t, at, c, []int64{pg}, []int64{128}, fillRandom(rng, 512))
		retiredUnder = d.gen[b] != gen && d.state[b] == blockRetired
	}
	sc.read(t, at, c, []int64{0}, []int64{n * 128})
	if !retiredUnder {
		t.Fatalf("no overwrite's collection retired the block of the unit it replaced: %+v", sc.st.Reliability())
	}
}

// TestFaultWearOutGracefulDegradation: worn-out blocks are retired and
// capacity degrades gracefully — data written before the wear-out stays
// intact and the report stays self-consistent.
func TestFaultWearOutGracefulDegradation(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	st := newFaultSTL(t, geo, DefaultConfig(), nvm.FaultPlan{Seed: 23, EnduranceLimit: 3})

	s, err := st.CreateSpace(4, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefModel(s)
	rng := rand.New(rand.NewSource(41))
	whole := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{160, 160}, whole); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), []int64{0, 0}, []int64{160, 160}, whole)

	// Churn until the first block wears out; every write in the loop must
	// still succeed (the over-provision reserve absorbs early retirements).
	for i := 0; i < 400 && st.Reliability().WearoutFaults == 0; i++ {
		sub := []int64{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		coord := []int64{rng.Int63n(160 / sub[0]), rng.Int63n(160 / sub[1])}
		_, n, err := v.PartitionShape(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		data := fillRandom(rng, n*4)
		if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		ref.scatter(v.Dims(), coord, sub, data)
	}

	r := st.Reliability()
	if r.WearoutFaults == 0 {
		t.Fatal("no block reached the endurance limit in 400 churn writes")
	}
	if r.RetiredBlocks == 0 || r.RetiredPages == 0 {
		t.Fatalf("wear-out retired nothing: %+v", r)
	}
	reserve := st.Geometry().TotalPages() - r.MaxPages
	wantEff := r.MaxPages
	if excess := r.RetiredPages - reserve; excess > 0 {
		wantEff -= excess
	}
	if r.EffectivePages != wantEff {
		t.Fatalf("EffectivePages = %d, want %d (retired %d, reserve %d)",
			r.EffectivePages, wantEff, r.RetiredPages, reserve)
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{160, 160})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.gather(v.Dims(), []int64{0, 0}, []int64{160, 160})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d corrupted across wear-out retirement", i)
		}
	}
}

// TestGCRelocationOutOfSpaceRecovery: evacuateBlock with no room for the
// survivors fails atomically — it reports that nothing was reclaimable, no
// mappings are touched, and every byte is still readable from the source
// units.
func TestGCRelocationOutOfSpaceRecovery(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.CreateSpace(4, []int64{32, 32}) // 8 pages, 4 per die
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(s, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	data := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{32, 32}, data); err != nil {
		t.Fatal(err)
	}

	// Find a block holding valid units on die (0,0) and strand it: no free
	// blocks, no open blocks — zero room for relocation.
	d := st.die(0, 0)
	victim := -1
	for b := 0; b < geo.BlocksPerBank; b++ {
		if d.validInBlk[b] > 0 {
			victim = b
			break
		}
	}
	if victim < 0 {
		t.Fatal("no block with valid units on die 0/0")
	}
	for _, b := range d.freeBlocks {
		d.state[b] = blockInUse
	}
	d.freeBlocks = nil
	for s := range d.open {
		d.open[s].block = -1
	}

	if _, progress, err := st.evacuateBlock(0, 0, 0, victim); err != nil || progress {
		t.Fatalf("want a no-progress outcome from stranded evacuation, got progress=%v err=%v", progress, err)
	}

	// Source mappings must still be authoritative.
	for pg := 0; pg < geo.PagesPerBlock; pg++ {
		src := nvm.PPA{Channel: 0, Bank: 0, Block: victim, Page: pg}
		if e := st.rev[src.Linear(geo)]; e.valid {
			gcoord := make([]int64, len(s.grid))
			s.GridCoord(int64(e.block), gcoord)
			blk, _ := st.block(s, gcoord, false)
			if blk == nil || blk.pages[e.page].load() != slotOf(st.lay.Word(src)) {
				t.Fatalf("page %d: mapping rebound despite failed evacuation", pg)
			}
		}
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted by failed evacuation", i)
		}
	}
}

// TestFlushRecoveryDrainsPending: a Flush that hits an error on one staged
// page keeps draining the rest, leaves exactly the failed page pending, and
// a retry after the condition clears programs it.
func TestFlushRecoveryDrainsPending(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	cfg.ZeroPageElision = true
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the logical budget completely so any later allocation fails.
	filler, err := st.CreateSpace(4, []int64{56, 64}) // 14336 B = 28 pages = maxPages
	if err != nil {
		t.Fatal(err)
	}
	fv, err := NewView(filler, []int64{56, 64})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	if _, _, err := st.WritePartition(0, fv, []int64{0, 0}, []int64{56, 64}, fillRandom(rng, filler.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Stage two sub-unit writes: a nonzero page (will need a unit) and an
	// all-zero page (elided at flush, needs none).
	hot, err := st.CreateSpace(4, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	hv, err := NewView(hot, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	hotData := fillRandom(rng, 8*8*4)
	if _, _, err := st.WritePartition(0, hv, []int64{0, 0}, []int64{8, 8}, hotData); err != nil {
		t.Fatal(err)
	}
	cold, err := st.CreateSpace(4, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := NewView(cold, []int64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.WritePartition(0, cv, []int64{0, 0}, []int64{8, 8}, make([]byte, 8*8*4)); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != 2 {
		t.Fatalf("staged %d pages, want 2", st.PendingPages())
	}

	// First flush: the nonzero page fails on capacity, but the flush drains
	// on — the zero page is elided and leaves its space's staging map.
	if _, err := st.Flush(0); !errors.Is(err, ErrCapacity) {
		t.Fatalf("want ErrCapacity from squeezed flush, got %v", err)
	}
	if st.PendingPages() != 1 {
		t.Fatalf("%d pages pending after failed flush, want 1 (the failed page only)", st.PendingPages())
	}

	// Clear the squeeze and retry: exactly the still-pending page programs.
	if err := st.DeleteSpace(filler.id); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Flush(0); err != nil {
		t.Fatalf("retry flush after freeing capacity: %v", err)
	}
	if st.PendingPages() != 0 {
		t.Fatalf("%d pages pending after retry flush, want 0", st.PendingPages())
	}
	got, _, _, err := st.ReadPartition(0, hv, []int64{0, 0}, []int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != hotData[i] {
			t.Fatalf("byte %d of the retried page corrupted", i)
		}
	}
}

// faultMatrixPlan injects every fault class: programs, erases, read retries
// and wear-out.
var faultMatrixPlan = nvm.FaultPlan{
	Seed:             101,
	ProgramFailEvery: 250,
	EraseFailEvery:   8,
	ReadRetryEvery:   7,
	EnduranceLimit:   200,
}

// faultMatrixRun drives one STL instance through a fixed mixed workload under
// a full fault plan, every read checked against the model, and returns the
// script with its trace.
func faultMatrixRun(t *testing.T) *script {
	t.Helper()
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(faultMatrixPlan)
	sc := newScript(t, dev, DefaultConfig())
	sc.after = func() { auditDies(t, sc.st) }
	c := sc.space(t, 4, []int64{160, 160}, []int64{160, 160})
	rng := rand.New(rand.NewSource(77))
	sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{160, 160}, fillRandom(rng, 160*160*4))
	for i := 0; i < 25; i++ {
		sub := []int64{1 + rng.Int63n(64), 1 + rng.Int63n(64)}
		coord := []int64{rng.Int63n(160 / sub[0]), rng.Int63n(160 / sub[1])}
		_, n, err := c.v.PartitionShape(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		sc.mustWrite(t, 0, c, coord, sub, fillRandom(rng, n*4))
		sc.read(t, 0, c, coord, sub)
	}
	sc.read(t, 0, c, []int64{0, 0}, []int64{160, 160})
	return sc
}

// TestFaultMatrixDeterministic: the same seeded fault plan over the same
// mixed workload replays identically — bytes, completion times, and the full
// reliability report, run against run and against the golden trace — and
// actually exercises every fault class it enables.
func TestFaultMatrixDeterministic(t *testing.T) {
	first, second := faultMatrixRun(t), faultMatrixRun(t)
	if a, b := first.tr.String(), second.tr.String(); a != b {
		t.Fatalf("two runs traced differently:\n%s\n%s", a, b)
	}
	r := first.st.Reliability()
	if r2 := second.st.Reliability(); r != r2 {
		t.Fatalf("reliability reports diverged:\n%+v\n%+v", r, r2)
	}
	if r.ProgramFaults == 0 || r.EraseFaults == 0 || r.ReadRetries == 0 {
		t.Fatalf("fault matrix left a class unexercised: %+v", r)
	}
	if r.ProgramRetries == 0 || r.RetiredBlocks == 0 {
		t.Fatalf("recovery never ran: %+v", r)
	}
	first.golden(t, "TestFaultMatrixDeterministic")
}

// TestEvacuationFaultCommitsLandedPrefix pins evacuateBlock's error contract
// now that a landed relocation takes its source's frame: a relocation batch
// that faults beyond recovery rebinds the relocations that landed to their
// destinations and leaves the rest on their sources, so every byte still
// reads back and every bound unit is a programmed unit; and collecting the
// partly evacuated victim later, with the faults gone, corrupts nothing.
func TestEvacuationFaultCommitsLandedPrefix(t *testing.T) {
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type client struct {
		s   *Space
		v   *View
		img []byte
	}
	rng := rand.New(rand.NewSource(21))
	open := func(rows, cols int64) *client {
		s, err := st.CreateSpace(4, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(s, []int64{rows, cols})
		if err != nil {
			t.Fatal(err)
		}
		return &client{s: s, v: v, img: make([]byte, rows*cols*4)}
	}
	// write stores a fresh random 32x32 building block (8 pages, 4 a die).
	write := func(c *client, coord []int64) {
		t.Helper()
		tile := fillRandom(rng, 32*32*4)
		if _, _, err := st.WritePartition(0, c.v, coord, []int64{32, 32}, tile); err != nil {
			t.Fatal(err)
		}
		pasteTile(c.img, c.s.Dims()[1], 4, coord, []int64{32, 32}, tile)
	}
	check := func(when string, cs ...*client) {
		t.Helper()
		for i, c := range cs {
			dims := c.s.Dims()
			got, _, _, err := st.ReadPartition(0, c.v, []int64{0, 0}, dims)
			if err != nil {
				t.Fatalf("%s: space %d: %v", when, i, err)
			}
			for j := range got {
				if got[j] != c.img[j] {
					t.Fatalf("%s: space %d byte %d diverged from the host image", when, i, j)
				}
			}
			// No bound unit is unprogrammed, and the reverse table agrees.
			gcoord := make([]int64, len(c.s.grid))
			for b := int64(0); b < prod(c.s.grid); b++ {
				c.s.GridCoord(b, gcoord)
				blk, _ := st.block(c.s, gcoord, false)
				if blk == nil {
					continue
				}
				for pg, slot := range blk.pages {
					if !slot.allocated() {
						continue
					}
					p := st.lay.PPA(slot.word())
					e := st.rev[p.Linear(geo)]
					if !dev.Programmed(p) || !e.valid || e.space != c.s.id || int64(e.block) != b || int(e.page) != pg {
						t.Fatalf("%s: space %d block %d page %d bound to %v: programmed=%v rev=%+v", when, i, b, pg, p, dev.Programmed(p), e)
					}
				}
			}
		}
	}

	// Blocks of A and B alternate, so every flash block holds pages of both;
	// C then fills the array up to one free block a die.
	a, b, c := open(64, 64), open(64, 64), open(64, 96)
	for _, coord := range [][]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		write(a, coord)
		write(b, coord)
	}
	for _, coord := range [][]int64{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}} {
		write(c, coord)
	}
	check("filled", a, b, c)
	d := st.die(0, 0)
	const victim = 0
	valid := d.validInBlk[victim]

	// Every other program attempt on a die fails, and each fault retires the
	// block it struck: with one free block a die the batch lands three
	// relocations — one of them copied to the other die by fault recovery —
	// before recovery runs out of units.
	dev.SetFaultPlan(nvm.FaultPlan{Seed: 3, ProgramFailEvery: 2})
	moves := st.GCReport().PagesRelocated
	_, res, err := st.evacuateBlock(0, 0, 0, victim)
	landed := st.GCReport().PagesRelocated - moves
	if !errors.Is(err, ErrMedia) || landed == 0 || landed >= int64(valid) {
		t.Fatalf("want an evacuation that faults beyond recovery part-way through its %d relocations, got %d landed, res=%v err=%v", valid, landed, res, err)
	}
	if got := int64(d.validInBlk[victim]); got != int64(valid)-landed {
		t.Fatalf("victim holds %d valid units after %d of %d moved out", got, landed, valid)
	}
	check("after the failed evacuation", a, b, c)

	// The faults clear and C goes away; churn on A and B now collects the
	// victim's remainder and the blocks around it.
	dev.SetFaultPlan(nvm.FaultPlan{})
	if err := st.DeleteSpace(c.s.ID()); err != nil {
		t.Fatal(err)
	}
	erasedBefore := dev.EraseCount(nvm.PPA{Block: victim})
	for k := 0; k < 200 && dev.EraseCount(nvm.PPA{Block: victim}) == erasedBefore; k++ {
		cl := []*client{a, b}[k%2]
		write(cl, []int64{rng.Int63n(2), rng.Int63n(2)})
	}
	if dev.EraseCount(nvm.PPA{Block: victim}) == erasedBefore {
		t.Fatal("the partly evacuated victim was never collected")
	}
	check("after collecting the victim", a, b)
}
