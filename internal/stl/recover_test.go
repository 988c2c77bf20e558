package stl

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// firstFault reports which program attempt (0-based) die (channel, 0) fails
// first under plan, -1 for none among as many attempts as the die has pages.
func firstFault(t *testing.T, geo nvm.Geometry, plan nvm.FaultPlan, channel int) int {
	t.Helper()
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultPlan(plan)
	page := make([]byte, geo.PageSize)
	for i := 0; i < geo.BlocksPerBank*geo.PagesPerBlock; i++ {
		p := nvm.PPA{Channel: channel, Block: i / geo.PagesPerBlock, Page: i % geo.PagesPerBlock}
		if _, err := dev.ProgramPages([]nvm.ProgramOp{{P: p, Data: page}}); err != nil {
			return i
		}
	}
	return -1
}

// readOne reads the page at p as a one-word batch.
func readOne(t *testing.T, dev *nvm.Device, p nvm.PPA) []byte {
	t.Helper()
	lay, out := dev.Layout(), make([][]byte, 1)
	if _, err := dev.ReadWords(0, []nvm.Word{lay.Word(p)}, out); err != nil {
		t.Fatal(err)
	}
	return out[0]
}

// seedFaultingAt finds a fault-plan seed under which each listed die
// (channel, 0) first fails its at[channel]-th program attempt: phases are
// derived from the seed, so a test that aims a fault at one op looks one up.
func seedFaultingAt(t *testing.T, geo nvm.Geometry, every int64, at map[int]int) int64 {
	t.Helper()
search:
	for seed := int64(0); seed < 1024; seed++ {
		for channel, k := range at {
			if firstFault(t, geo, nvm.FaultPlan{Seed: seed, ProgramFailEvery: every}, channel) != k {
				continue search
			}
		}
		return seed
	}
	t.Fatalf("no seed below 1024 makes one program in %d fail first at %v", every, at)
	return 0
}

// slotAt locates the i-th page slot of s in block-then-page order — page page
// of blk, building block block — making the block if need be.
func slotAt(st *STL, s *Space, i int) (blk *BuildingBlock, block int64, page int) {
	block, page = int64(i/s.pagesPerBB), i%s.pagesPerBB
	gcoord := make([]int64, len(s.grid))
	s.GridCoord(block, gcoord)
	blk, _ = st.block(s, gcoord, true)
	return blk, block, page
}

// bindSlot binds the carved unit p to the i-th page slot of s, as a writer
// does when it queues the page's program and the collector once it landed.
func bindSlot(st *STL, s *Space, i int, p nvm.PPA) {
	blk, block, page := slotAt(st, s, i)
	st.bindUnit(s, blk, block, page, p)
}

// checkBoundUnits fails unless every allocated slot of s is bound to a
// programmed unit that the reverse table maps back to it and that holds
// want[slot index], no unit is left carved and not landed, and usedPages counts
// exactly the allocated slots.
func checkBoundUnits(t *testing.T, st *STL, s *Space, want map[int][]byte) {
	t.Helper()
	geo := st.geo
	gcoord := make([]int64, len(s.grid))
	allocated := 0
	for b := int64(0); b < prod(s.grid); b++ {
		s.GridCoord(b, gcoord)
		blk, _ := st.block(s, gcoord, false)
		if blk == nil {
			continue
		}
		for pg, slot := range blk.pages {
			if !slot.allocated() {
				continue
			}
			allocated++
			p := st.lay.PPA(slot.word())
			e := st.rev[p.Linear(geo)]
			if !st.dev.Programmed(p) || !e.valid || e.space != s.id || int64(e.block) != b || int(e.page) != pg {
				t.Fatalf("block %d page %d bound to %v: programmed=%v rev=%+v", b, pg, p, st.dev.Programmed(p), e)
			}
			if i := int(b)*s.pagesPerBB + pg; !bytes.Equal(readOne(t, st.dev, p), want[i]) {
				t.Fatalf("block %d page %d at %v does not hold the page queued for it", b, pg, p)
			}
		}
	}
	if allocated != len(want) {
		t.Fatalf("%d slots are allocated, want %d", allocated, len(want))
	}
	if used := st.usedPages.Load(); used != int64(allocated) {
		t.Fatalf("usedPages = %d with %d slots allocated", used, allocated)
	}
	for i, d := range st.dies {
		for b := range d.unlanded {
			if n := d.unlanded[b].Load(); n != 0 {
				t.Fatalf("die %d block %d is left with %d carved, unlanded units", i, b, n)
			}
		}
	}
}

// TestLandPrograms drives the landing loop directly, once as a writer whose
// ops are bound (rebindFaulted, then unbind what did not land) and once as
// the collector (release the abandoned destination, bind what landed, release
// the rest), under fault plans aimed at one op of the batch.
func TestLandPrograms(t *testing.T) {
	roomy := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 12, PagesPerBlock: 4, PageSize: 512}
	full := nvm.Geometry{Channels: 1, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	for _, tc := range []struct {
		name  string
		geo   nvm.Geometry
		n     int   // ops in the batch, carved on die (0,0) in order
		every int64 // ProgramFailEvery, 0 for no plan
		first int   // the batch index the first fault strikes
		spoil int   // 1 + the index of an op the device refuses to validate

		landed  int
		retries int64
		faults  int64
		media   bool // the error is ErrMedia
		invalid bool // the error is the device's validation error
	}{
		{name: "no fault", geo: roomy, n: 6, landed: 6},
		{name: "fault at index 0", geo: roomy, n: 6, every: 64, first: 0, landed: 6, retries: 1, faults: 1},
		{name: "fault mid-batch", geo: roomy, n: 6, every: 64, first: 3, landed: 6, retries: 1, faults: 1},
		{name: "fault at the last op", geo: roomy, n: 6, every: 64, first: 5, landed: 6, retries: 1, faults: 1},
		// Attempts 1, 5, 9 ... of the die fail: op 1, then — the retry of ops
		// 1..5 being attempts 2..6 — op 4.
		{name: "two faults in one batch", geo: roomy, n: 6, every: 4, first: 1, landed: 6, retries: 2, faults: 2},
		{name: "validation error", geo: roomy, n: 6, spoil: 1 + 4, landed: 0, invalid: true},
		// Every attempt fails: the first op burns its unit and maxProgramRetries
		// more, on both dies.
		{name: "retries exhausted", geo: roomy, n: 6, every: 1, landed: 0, retries: maxProgramRetries, faults: maxProgramRetries + 1, media: true},
		// The batch holds every unit of the device, so the one fault finds none
		// to relocate to: the stored prefix is what landed.
		{name: "units exhausted", geo: full, n: 16, every: 64, first: 5, landed: 5, faults: 1, media: true},
	} {
		for _, bound := range []bool{true, false} {
			hook := "bound"
			if !bound {
				hook = "collector"
			}
			t.Run(tc.name+"/"+hook, func(t *testing.T) {
				var plan nvm.FaultPlan
				if tc.every > 0 {
					plan = nvm.FaultPlan{ProgramFailEvery: tc.every}
					if tc.every > 1 {
						plan.Seed = seedFaultingAt(t, tc.geo, tc.every, map[int]int{0: tc.first})
					}
				}
				st := newFaultSTL(t, tc.geo, DefaultConfig(), plan)
				s, err := st.CreateSpace(4, []int64{64, 64})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(31))
				ops := make([]nvm.ProgramOp, tc.n)
				pages := make([][]byte, tc.n)
				for i := range ops {
					p, ok := st.takeUnitRaw(0, 0)
					if !ok {
						t.Fatalf("die (0,0) has no unit for op %d", i)
					}
					pages[i] = fillRandom(rng, int64(tc.geo.PageSize))
					ops[i] = nvm.ProgramOp{At: 0, P: p, Data: pages[i]}
					if bound {
						bindSlot(st, s, i, p)
					}
				}
				if tc.spoil > 0 {
					ops[tc.spoil-1].Data = make([]byte, tc.geo.PageSize+1)
				}

				relocated := st.rebindFaulted
				if !bound {
					relocated = func(old, _ nvm.PPA) bool { st.releaseUnit(old); return true }
				}
				done, landed, retries, err := st.landPrograms(ops, relocated)
				switch {
				case tc.media && !errors.Is(err, ErrMedia):
					t.Fatalf("want ErrMedia, got %v", err)
				case tc.invalid && (err == nil || errors.Is(err, ErrMedia)):
					t.Fatalf("want the device's validation error, got %v", err)
				case !tc.media && !tc.invalid && err != nil:
					t.Fatal(err)
				}
				if landed != tc.landed || retries != tc.retries {
					t.Fatalf("landed %d ops with %d relocations, want %d with %d (err %v)", landed, retries, tc.landed, tc.retries, err)
				}
				if r := st.Reliability(); r.ProgramFaults != tc.faults || r.ProgramRetries != tc.retries || r.RetiredBlocks > tc.faults {
					t.Fatalf("%d faults, %d relocations counted, %d blocks retired; want %d, %d, at most one a fault", r.ProgramFaults, r.ProgramRetries, r.RetiredBlocks, tc.faults, tc.retries)
				}
				if attempted := landed > 0 || tc.faults > 0; attempted != (done > 0) {
					t.Fatalf("completion time %v after %d ops landed and %d faulted", done, landed, tc.faults)
				}
				for i := range ops {
					if got := st.dev.Programmed(ops[i].P); tc.invalid && got {
						t.Fatalf("op %d at %v was stored by a batch that failed validation", i, ops[i].P)
					} else if i < landed && !got {
						t.Fatalf("op %d of the landed prefix is not programmed at %v", i, ops[i].P)
					}
				}

				// The caller's half of the contract, then the invariant.
				if bound {
					st.unbindOps(ops[landed:])
				} else {
					for i := range ops[:landed] {
						bindSlot(st, s, i, ops[i].P)
					}
					st.releaseOps(ops[landed:])
				}
				want := make(map[int][]byte, landed)
				for i := 0; i < landed; i++ {
					want[i] = pages[i]
				}
				checkBoundUnits(t, st, s, want)
			})
		}
	}
}

// flushTwin stages sub-page writes all over a space of a write-buffered STL
// whose every seventh program attempt a die
// fails, flushes, and reports what the flush returned.
func flushTwin(t *testing.T) (sim.Time, ReliabilityReport) {
	t.Helper()
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 8, PagesPerBlock: 8, PageSize: 512}
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	st := newFaultSTL(t, geo, cfg, nvm.FaultPlan{Seed: 9, ProgramFailEvery: 7})
	s := mustSpace(t, st, 4, 128, 128)
	v := mustView(t, s, 128, 128)
	rng := rand.New(rand.NewSource(27))
	img := make([]byte, s.Bytes())
	for i := int64(0); i < 64; i++ { // the left half of every other row: no page fills
		tile := fillRandom(rng, 64*4)
		coord := []int64{2 * i, 0}
		if _, _, err := st.WritePartition(0, v, coord, []int64{1, 64}, tile); err != nil {
			t.Fatal(err)
		}
		pasteTile(img, 128, 4, coord, []int64{1, 64}, tile)
	}
	if st.PendingPages() == 0 {
		t.Fatal("nothing staged")
	}
	done, err := st.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	r := st.Reliability()
	if r.ProgramRetries == 0 {
		t.Fatal("the flush met no fault")
	}
	if st.PendingPages() != 0 {
		t.Fatalf("%d pages still pending after a flush that reported no error", st.PendingPages())
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{128, 128})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("flushed data diverged from the host image")
	}
	return done, r
}

// TestFlushFaultedTwinsAgree: a flush that recovers from program faults is a
// function of its inputs — two identically driven STLs return the same
// completion time and the same reliability report. Recovery relocates across
// channels; nothing but the calling goroutine issues device operations, so no
// interleaving can reorder the fault counters.
func TestFlushFaultedTwinsAgree(t *testing.T) {
	doneA, relA := flushTwin(t)
	doneB, relB := flushTwin(t)
	if doneA != doneB || relA != relB {
		t.Fatalf("twins diverged: done %v vs %v, reliability %+v vs %+v", doneA, doneB, relA, relB)
	}
}

// TestFlushRelocatesAcrossChannels: a staged page whose program faults on a
// channel with no other unit to carve lands on another channel, like any
// other writer's would.
func TestFlushRelocatesAcrossChannels(t *testing.T) {
	// Two dies, one a channel, and one block in service on each: the fault
	// that retires it leaves its channel with nothing.
	geo := nvm.Geometry{Channels: 2, Banks: 1, BlocksPerBank: 4, PagesPerBlock: 4, PageSize: 512}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WriteBuffering = true
	st := mustNew(t, dev, cfg)
	for ch := 0; ch < geo.Channels; ch++ {
		for b := 1; b < geo.BlocksPerBank; b++ {
			st.retireBlock(ch, 0, b)
		}
	}
	// A 16x16 block of float32 is two pages; half-cover the first so that it
	// stages.
	s := mustSpace(t, st, 4, 16, 16)
	v := mustView(t, s, 16, 16)
	half := fillRandom(rand.New(rand.NewSource(5)), 4*16*4)
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{4, 16}, half); err != nil {
		t.Fatal(err)
	}
	if st.PendingPages() != 1 {
		t.Fatalf("staged %d pages, want 1", st.PendingPages())
	}
	// Which channel the page goes to is the allocation policy's draw: once the
	// flush has carved its unit, fail that die's first program attempt and not
	// the other's.
	st.carved = func(p nvm.PPA) {
		dev.SetFaultPlan(nvm.FaultPlan{
			Seed:             seedFaultingAt(t, geo, 2, map[int]int{p.Channel: 0, 1 - p.Channel: 1}),
			ProgramFailEvery: 2,
		})
	}
	before := st.Reliability()

	if _, err := st.Flush(0); err != nil {
		t.Fatalf("flush with units free on the other channel: %v", err)
	}
	if st.PendingPages() != 0 {
		t.Fatalf("%d pages pending after the flush", st.PendingPages())
	}
	r := st.Reliability()
	if r.ProgramFaults != 1 || r.ProgramRetries != 1 || r.RetiredBlocks != before.RetiredBlocks+1 {
		t.Fatalf("want one fault, one relocation, one more retirement than %d; got %+v", before.RetiredBlocks, r)
	}
	if blk, _, _ := slotAt(st, s, 0); !blk.pages[0].allocated() || !dev.Programmed(st.lay.PPA(blk.pages[0].word())) {
		t.Fatalf("page 0 is bound to word %#x (slot %d)", uint32(blk.pages[0].word()), blk.pages[0])
	}
	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, half) {
		t.Fatal("the relocated page does not read back")
	}
}
