package stl

import (
	"math/rand"
	"slices"
	"testing"

	"nds/internal/nvm"
)

// auditDies checks every die's allocation state against what it summarizes:
// freePages is the free blocks' pages plus what is left of both open blocks;
// the free list and the block states agree; every block's validInBlk is its
// count of valid reverse entries, and every valid entry's slot (slotAt: a
// building block's page, or for space 0 the LBA's logical page) names its
// unit; no open block is free, retired, shared by both streams or picked as a
// victim; and, the STL being quiet, no unit is carved and not landed.
func auditDies(t *testing.T, st *STL) {
	t.Helper()
	geo := st.geo
	for ch := 0; ch < geo.Channels; ch++ {
		for bk := 0; bk < geo.Banks; bk++ {
			d := st.die(ch, bk)
			d.mu.Lock()
			free := int64(len(d.freeBlocks) * geo.PagesPerBlock)
			for s := range d.open {
				free += int64(d.open[s].left(geo.PagesPerBlock))
			}
			if got := d.freePages.Load(); got != free {
				d.mu.Unlock()
				t.Fatalf("die ch%d/bk%d: freePages %d, its free blocks and open tails hold %d", ch, bk, got, free)
			}
			inFree := 0
			for b := 0; b < geo.BlocksPerBank; b++ {
				if d.state[b] == blockFree {
					inFree++
					if !slices.Contains(d.freeBlocks, b) {
						d.mu.Unlock()
						t.Fatalf("die ch%d/bk%d: block %d is marked free and is not on the free list %v", ch, bk, b, d.freeBlocks)
					}
				}
				valid := int32(0)
				for pg := 0; pg < geo.PagesPerBlock; pg++ {
					p := nvm.PPA{Channel: ch, Bank: bk, Block: b, Page: pg}
					e := st.rev[p.Linear(geo)]
					if !e.valid {
						continue
					}
					valid++
					if slot, _ := st.slotAt(e, nil); slot == nil || slot.load() != slotOf(st.lay.Word(p)) {
						d.mu.Unlock()
						t.Fatalf("die ch%d/bk%d: unit %v's reverse entry %+v names a slot that does not hold it", ch, bk, p, e)
					}
				}
				if d.validInBlk[b] != valid {
					d.mu.Unlock()
					t.Fatalf("die ch%d/bk%d: block %d counts %d valid units, its reverse entries %d", ch, bk, b, d.validInBlk[b], valid)
				}
				if n := d.unlanded[b].Load(); n != 0 {
					d.mu.Unlock()
					t.Fatalf("die ch%d/bk%d: block %d has %d units carved and not landed with the STL quiet", ch, bk, b, n)
				}
			}
			if inFree != len(d.freeBlocks) {
				d.mu.Unlock()
				t.Fatalf("die ch%d/bk%d: %d blocks marked free, free list %v", ch, bk, inFree, d.freeBlocks)
			}
			victim := st.pickVictimLocked(d, ch, bk)
			for s, o := range d.open {
				if o.block < 0 {
					continue
				}
				bad := ""
				switch {
				case d.state[o.block] != blockInUse || slices.Contains(d.freeBlocks, o.block):
					bad = "is free or retired"
				case o.block == victim:
					bad = "is the collector's next victim"
				case s == defaultStream && d.open[hotStream].block == o.block:
					bad = "is open in both streams"
				}
				if bad != "" {
					d.mu.Unlock()
					t.Fatalf("die ch%d/bk%d: open block %d of stream %d %s", ch, bk, o.block, s, bad)
				}
			}
			d.mu.Unlock()
		}
	}
}

// TestHotRewritesGetTheirOwnBlock ages a small array with inline collection
// through four raw capacities of Zipf(1.1) overwrites of whole building
// blocks, checking reads against the model and auditing the allocator after
// every operation. Each die programs the overwrites of recently written
// blocks into a block of their own, so those blocks empty out before the
// collector gets to them: write amplification is 1.46, where one open block a
// die gave 1.58 for the same script. The second arm faults the first program
// of one request into a die's hot block, so the block is retired with pages
// of the request still queued for it.
func TestHotRewritesGetTheirOwnBlock(t *testing.T) {
	for _, fault := range []bool{false, true} {
		name := "clean"
		if fault {
			name = "hot block retired"
		}
		t.Run(name, func(t *testing.T) {
			geo := nvm.Geometry{Channels: 4, Banks: 1, BlocksPerBank: 9, PagesPerBlock: 32, PageSize: 512}
			dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
			if err != nil {
				t.Fatal(err)
			}
			sc := newScript(t, dev, DefaultConfig())
			sc.after = func() { auditDies(t, sc.st) }
			// 4x19 building blocks of 32x32 float32, 8 pages each: 608 pages, 59 %
			// of the logical capacity.
			c := sc.space(t, 4, []int64{128, 608}, []int64{128, 608})
			if n := c.v.space.pagesPerBB; n != 8 {
				t.Fatalf("building blocks of %d pages, the test wants 8", n)
			}
			rng := rand.New(rand.NewSource(27))
			at := sc.mustWrite(t, 0, c, []int64{0, 0}, []int64{128, 608}, fillRandom(rng, 128*608*4))

			// The fault arm: past the midpoint, the first request whose first unit
			// on die ch0 comes from the hot block gets that unit's program faulted.
			ops := int(4 * geo.TotalPages() / 8)
			var (
				armed, struck bool
				hotBlock      int
			)
			if fault {
				plan := nvm.FaultPlan{Seed: seedFaultingAt(t, geo, 64, map[int]int{0: 0}), ProgramFailEvery: 64}
				sc.st.carved = func(p nvm.PPA) {
					if !armed || p.Channel != 0 {
						return
					}
					armed = false
					if d := sc.st.die(0, 0); p.Block == d.open[hotStream].block {
						hotBlock, struck = p.Block, true
						dev.SetFaultPlan(plan)
					}
				}
			}
			zipf := rand.NewZipf(rng, 1.1, 1, 75)
			order := rng.Perm(76)
			for i := 0; i < ops; i++ {
				armed = fault && !struck && i >= ops/2
				b := int64(order[zipf.Uint64()])
				coord := []int64{b / 19, b % 19}
				at = sc.mustWrite(t, at, c, coord, []int64{32, 32}, fillRandom(rng, 32*32*4))
				armed = false
				if struck && sc.st.carved != nil {
					// The struck unit's program was the die's first under the plan.
					if n := dev.FaultStats().ProgramFaults; n == 0 {
						t.Fatal("the plan aimed at the hot block faulted nothing")
					}
					dev.SetFaultPlan(nvm.FaultPlan{})
					sc.st.carved = nil
					if state := sc.st.die(0, 0).state[hotBlock]; state != blockRetired {
						t.Fatalf("the faulted hot block %d is in state %d, not retired", hotBlock, state)
					}
				}
				// The tile just written after every write, and every 16 writes the
				// whole space, which holds whatever the collector moved.
				if i%16 == 15 || i == ops-1 {
					at = sc.read(t, at, c, []int64{0, 0}, []int64{128, 608})
				} else {
					at = sc.read(t, at, c, coord, []int64{32, 32})
				}
			}
			if fault && (!struck || sc.st.Reliability().ProgramRetries == 0) {
				t.Fatalf("no program into a hot block was faulted and relocated: %+v", sc.st.Reliability())
			}
			rep := sc.st.GCReport()
			if rep.Erases == 0 || rep.PagesRelocated == 0 {
				t.Fatalf("four raw capacities of overwrites never relocated a page: %+v", rep)
			}
			t.Logf("write amplification %.3f: %+v", rep.WriteAmp, rep)
			if !fault && rep.WriteAmp > 1.52 {
				t.Fatalf("write amplification %.3f, want at most 1.52", rep.WriteAmp)
			}
		})
	}
}
