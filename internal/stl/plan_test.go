package stl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// planGeo is four dies of nine 8-page blocks: small enough that one request
// takes a die from room to spare past the last free block it may open and
// past the low mark (7 pages of 72).
func planGeo() nvm.Geometry {
	return nvm.Geometry{Channels: 2, Banks: 2, BlocksPerBank: 9, PagesPerBlock: 8, PageSize: 512}
}

// ageCold writes pages 0..63 of a planGeo array fresh, about 16 a die, then
// overwrites them twice, leaving each die about 48 of its 72 pages taken and
// two or three free blocks. It writes in halves, so that each overwrite comes
// 32 programs, a block a die, after the last write of its pages, and goes to
// the default stream like a first write: no other stream holds a block, and a
// collection stops at the low mark. The first write's units and the first
// overwrite's are dead, whole blocks of them. write runs one request of n
// pages from page first.
func ageCold(write func(first, n int64)) {
	for range 3 {
		write(0, 32)
		write(32, 32)
	}
}

// coldCrossing is the request that crosses, on every die of an ageCold
// array, where a plan must stop: 28 fresh pages a die on average, more than
// any die can take without opening its last free block, which collects
// first, and then reaching the low mark, which collects again and erases a
// dead block. A plan that carried on past either point would move the
// collection, and the golden trace with it.
const coldCrossing = 28 * 4

// ageHot writes pages 0..63 fresh, then overwrites the first half and then
// the first quarter at once: the overwrites go to the hot stream, which is
// left holding a block with pages still to program. That tail counts as free.
func ageHot(write func(first, n int64)) {
	write(0, 64)
	write(0, 32)
	write(0, 16)
}

// hotCrossing is the request that takes every die of an ageHot array past
// its last free block: 36 fresh pages a die on average. A die meets that
// block with 10 to 14 pages free, the hot tail among them: above the low mark
// and above a block's worth, so only the die's room, asked under its lock
// (planUnit), stops the plan there.
const hotCrossing = 36 * 4

// unitDigest hashes the unit words of every page slot in slots, in order.
func unitDigest(slots ...[]pageSlot) uint64 {
	h := fnv.New64a()
	for _, ss := range slots {
		for i := range ss {
			fmt.Fprintf(h, "%x ", uint32(ss[i].load()))
		}
	}
	return h.Sum64()
}

// blockSlots is the page slots of every written building block of s, in
// grid order.
func blockSlots(st *STL, s *Space) [][]pageSlot {
	var out [][]pageSlot
	n := int64(1)
	for _, g := range s.grid {
		n *= g
	}
	for g := int64(0); g < n; g++ {
		if blk := st.blockAt(s, g, false); blk != nil {
			out = append(out, blk.pages)
		}
	}
	return out
}

// crossedMidRequest runs request and fails the test unless it carved a unit
// before its first collection, and then collected at least runs times and
// erased.
func crossedMidRequest(t *testing.T, st *STL, what string, runs int64, request func()) {
	t.Helper()
	before := st.GCReport()
	early := 0
	st.carved = func(nvm.PPA) {
		if st.gcRuns.Load() == before.Runs {
			early++
		}
	}
	request()
	st.carved = nil
	after := st.GCReport()
	if early == 0 || after.Runs-before.Runs < runs || after.Erases == before.Erases {
		t.Fatalf("%s: %d units carved before the first collection, then %d collections and %d erases; the request must cross the marks mid-way",
			what, early, after.Runs-before.Runs, after.Erases-before.Erases)
	}
}

// ndsCrossing runs a planGeo script: age over a space of 64 pages, then one
// request of fresh pages that crosses the marks (crossedMidRequest, runs),
// and reads both spaces back. It traces every request, the GC counters after
// the crossing and a digest of every page's unit.
func ndsCrossing(t *testing.T, rng *rand.Rand, what string, age func(func(first, n int64)), fresh, runs int64) *script {
	t.Helper()
	cfg := DefaultConfig()
	cfg.OverProvision = 0
	sc := newScript(t, mustDevice(t, planGeo()), cfg)
	sc.after = func() { auditDies(t, sc.st) }
	// A row of 128 4-byte elements is a page's worth, and a request of n
	// whole rows, n a multiple of the building blocks' 16, writes n pages.
	aged := sc.space(t, 4, []int64{64, 128}, []int64{64, 128})
	crossing := sc.space(t, 4, []int64{fresh, 128}, []int64{fresh, 128})
	var at sim.Time
	age(func(first, n int64) {
		at = sc.mustWrite(t, at, aged, []int64{first / n, 0}, []int64{n, 128}, fillRandom(rng, n*512))
	})
	crossedMidRequest(t, sc.st, what, runs, func() {
		at = sc.mustWrite(t, at, crossing, []int64{0, 0}, []int64{fresh, 128}, fillRandom(rng, fresh*512))
	})
	sc.tr.Add("%s gc=%+v", what, sc.st.GCReport())
	at = sc.read(t, at, aged, []int64{0, 0}, []int64{64, 128})
	sc.read(t, at, crossing, []int64{0, 0}, []int64{fresh, 128})
	sc.tr.Add("%s units=%016x", what, unitDigest(append(blockSlots(sc.st, aged.v.space), blockSlots(sc.st, crossing.v.space)...)...))
	return sc
}

// TestPlanStopsWhereCollectionStarts: NDS writes and an LBA write each take
// every die of a small array past the last free block it may open and past
// the low mark in the middle of the request, and one NDS write meets the
// last free block with a hot block's tail still free. Collection must run at
// the same unit as a carve of each unit in turn would run it, so the golden
// trace pins every request's completion and statistics and a digest of where
// every page went. Every die is audited after every request, and every byte
// is checked: the NDS spaces against the model of spaces, the LBA's pages
// against a dense copy.
func TestPlanStopsWhereCollectionStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	sc := ndsCrossing(t, rng, "nds cold", ageCold, coldCrossing, 2)
	hot := ndsCrossing(t, rng, "nds hot", ageHot, hotCrossing, 1)
	sc.tr.Add("%s", strings.TrimSuffix(hot.tr.String(), "\n"))

	l, err := NewLBA(mustDevice(t, planGeo()), Config{GCLowWater: DefaultConfig().GCLowWater})
	if err != nil {
		t.Fatal(err)
	}
	m := &lbaModel{l: l, pages: make([]byte, int64(len(l.slots))*l.pageSize())}
	var at sim.Time
	write := func(first, n int64) {
		at = m.write(t, rng, at, first, n)
		auditDies(t, l.t)
		sc.tr.Add("lba write [%d,%d) done=%d gc=%+v", first, first+n, at, l.GCReport())
	}
	ageCold(write)
	crossedMidRequest(t, l.t, "LBA write", 2, func() { write(64, coldCrossing) })
	m.check(t, 0, 64+coldCrossing)
	sc.tr.Add("lba units=%016x", unitDigest(l.slots))
	sc.golden(t, "TestPlanStopsWhereCollectionStarts")
}

func mustDevice(t *testing.T, geo nvm.Geometry) *nvm.Device {
	t.Helper()
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestFailedLandingForgetsUnits: when every program fails, relocations
// included, a write's programs never land and their units are given up —
// planned fresh units and an overwrite's replacement alike — so no slot holds
// them and they are not in use. The device then takes the same pages again
// and reads them back.
func TestFailedLandingForgetsUnits(t *testing.T) {
	dev := mustDevice(t, planGeo())
	cfg := DefaultConfig()
	cfg.OverProvision = 0
	sc := newScript(t, dev, cfg)
	sc.after = func() { auditDies(t, sc.st) }
	rng := rand.New(rand.NewSource(49))
	c := sc.space(t, 4, []int64{32 * 128}, []int64{32 * 128})
	if bb := c.v.space.BlockDims(); bb[0] != 2*128 {
		t.Fatalf("building blocks are %v; the test assumes two pages of 128 elements", bb)
	}
	// pages writes partition coord of n pages: pages coord*n to (coord+1)*n.
	pages := func(at sim.Time, coord, n int64) (sim.Time, error) {
		return sc.write(t, at, c, []int64{coord}, []int64{n * 128}, fillRandom(rng, n*512))
	}
	at, err := pages(0, 0, 5) // blocks 0 and 1, and the first page of block 2
	if err != nil {
		t.Fatal(err)
	}

	dev.SetFaultPlan(nvm.FaultPlan{ProgramFailEvery: 1})
	// Pages 4 to 7: block 2's first page again, its second, and block 3.
	if _, err := pages(at, 1, 4); !errors.Is(err, ErrMedia) {
		t.Fatalf("a write whose every program fails returned %v, want ErrMedia", err)
	}
	dev.SetFaultPlan(nvm.FaultPlan{})
	if used := sc.st.UsedPages(); used != 4 {
		t.Fatalf("%d pages in use after the failed write, want the 4 it did not touch", used)
	}

	at = sc.read(t, at, c, []int64{0}, []int64{4 * 128})
	for coord := int64(1); coord < 8; coord++ {
		if at, err = pages(at, coord, 4); err != nil {
			t.Fatal(err)
		}
	}
	sc.read(t, at, c, []int64{0}, []int64{32 * 128})
}

// carveRace is a planGeo script whose write of eight pages to planned meets,
// between its plan and its carve, writes to other that take the pages the
// plan counted on. The other writer runs inside that window, on the test's
// goroutine, so the interleaving is the same every run.
type carveRace struct {
	*script
	rng            *rand.Rand
	planned, other *checked
	next           int64 // other's next block
}

func newCarveRace(t *testing.T) *carveRace {
	t.Helper()
	cfg := DefaultConfig()
	cfg.OverProvision = 0
	r := &carveRace{script: newScript(t, mustDevice(t, planGeo()), cfg), rng: rand.New(rand.NewSource(50))}
	r.after = func() { auditDies(t, r.st) }
	r.planned = r.space(t, 4, []int64{8 * 128}, []int64{8 * 128})
	r.other = r.space(t, 4, []int64{288 * 128}, []int64{288 * 128})
	if bb := r.other.v.space.BlockDims(); bb[0] != 2*128 {
		t.Fatalf("building blocks are %v; the test assumes two pages of 128 elements", bb)
	}
	return r
}

// fill writes other's blocks to die i, whole blocks from the ablation
// allocator's round robin set to start there, until the die has left free
// pages or fewer.
func (r *carveRace) fill(t *testing.T, at sim.Time, i int, left int64) sim.Time {
	t.Helper()
	r.st.cfg.NaiveAllocation = true
	defer func() { r.st.cfg.NaiveAllocation = false }()
	for r.st.dies[i].freePages.Load() > left {
		r.st.naiveNext.Store(int64(i))
		at = r.mustWrite(t, at, r.other, []int64{r.next}, []int64{2 * 128}, fillRandom(r.rng, 2*512))
		r.next++
	}
	return at
}

// write writes planned's eight pages, a page an op, handing the dies its plan
// counted on (STL.dies indexes, the first op's die first) to take before the
// carve.
func (r *carveRace) write(t *testing.T, take func(dies []int)) (sim.Time, []byte, error) {
	t.Helper()
	carved := false
	r.st.carving = func(p *unitPlan) {
		r.st.carving, carved = nil, true
		var dies []int
		for _, i := range p.dies { // bank-major, in the order the plan met them
			if p.count[i] > 0 {
				dies = append(dies, int(i)%r.st.geo.Channels*r.st.geo.Banks+int(i)/r.st.geo.Channels)
			}
		}
		take(dies)
	}
	data := fillRandom(r.rng, 8*512)
	done, err := r.script.write(t, 0, r.planned, []int64{0}, []int64{8 * 128}, data)
	if !carved {
		t.Fatal("the write carved no plan")
	}
	return done, data, err
}

// TestPlanFallsBackWhenItsDieIsTaken: between a write's plan and its carve,
// a writer of another space takes the pages the plan counted on — all of one
// die's, and all but eight of another's. The units planned on the first die
// go to dies with room (allocateRecoveryUnit), those on the second take
// their pages one by one, collecting first (takeUnit), and the write
// succeeds: a device with room never answers ErrCapacity. The dies audit
// clean, and every byte is the model's.
func TestPlanFallsBackWhenItsDieIsTaken(t *testing.T) {
	r := newCarveRace(t)
	var (
		full  = -1
		taken sim.Time
	)
	at, _, err := r.write(t, func(dies []int) {
		if len(dies) < 2 {
			t.Fatalf("the plan counted on dies %v; the test needs two", dies)
		}
		full = dies[0]
		taken = r.fill(t, 0, dies[0], 0)
		taken = r.fill(t, taken, dies[1], 8)
	})
	if err != nil {
		t.Fatalf("a write with room on the device: %v", err)
	}
	for _, pages := range blockSlots(r.st, r.planned.v.space) {
		for i := range pages {
			if w := pages[i].load().word(); r.st.lay.Die(w) == full {
				t.Fatalf("page %d of a block is on die %d, which the other writer filled", i, full)
			}
		}
	}
	at = r.read(t, sim.Max(at, taken), r.planned, []int64{0}, []int64{8 * 128})
	r.read(t, at, r.other, []int64{0}, []int64{r.next * 2 * 128})
}

// TestPlanWithoutPagesFailsWhole: between a write's plan and its carve,
// another writer fills the device but for two pages, on the die of the
// write's first page. The first page and one more get them; the rest have
// none, and the write fails with ErrCapacity. Only the ops queued before the
// first without a unit land, and the ops are in page order, so the pages that
// hold units are a prefix of the eight, the first page at least. Every page
// holds what was written to it or reads as zeros, and the dies audit clean.
func TestPlanWithoutPagesFailsWhole(t *testing.T) {
	r := newCarveRace(t)
	var taken sim.Time
	_, data, err := r.write(t, func(dies []int) {
		for i := range r.st.dies {
			if i != dies[0] {
				taken = r.fill(t, taken, i, 0)
			}
		}
		taken = r.fill(t, taken, dies[0], 2)
	})
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("a write with two pages left for eight returned %v, want ErrCapacity", err)
	}
	got, _, _ := r.readRaw(t, taken, r.planned, []int64{0}, []int64{8 * 128})
	landed := 0
	for pg := 0; pg < 8; pg++ {
		want := data[pg*512 : (pg+1)*512]
		if blk := r.st.blockAt(r.planned.v.space, int64(pg/2), false); blk == nil || !blk.pages[pg%2].load().allocated() {
			want = make([]byte, 512)
		} else if landed++; landed != pg+1 {
			t.Fatalf("page %d holds a unit and page %d does not: a page behind the first without a unit landed", pg, landed-1)
		}
		if !bytes.Equal(got[pg*512:(pg+1)*512], want) {
			t.Fatalf("page %d reads neither what was written to it nor zeros", pg)
		}
	}
	if landed == 0 || landed > 2 {
		t.Fatalf("%d of the failed write's pages landed, want the first page and at most one more", landed)
	}
	if used := r.st.UsedPages(); used != r.next*2+int64(landed) {
		t.Fatalf("%d pages in use, want the other writer's %d and the %d that landed", used, r.next*2, landed)
	}
	r.read(t, taken, r.other, []int64{0}, []int64{r.next * 2 * 128})
}
