package stl

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// die tracks per-(channel,bank) log-structured allocation state, mirroring
// the physical constraint that pages within an erase block are programmed in
// order.
//
// mu is a leaf lock in the STL's order (space -> die -> cache shard / device
// shard): it guards the open blocks, the free-block list, and this die's
// slice of the reverse-lookup table (rev entries whose PPA lands on this die,
// plus validInBlk). freePages is additionally an atomic so low-mark checks
// and placement heuristics can read it without taking mu; every mutation
// happens under mu so compound invariants stay intact. freePages is always
// the free blocks' pages plus what is left of every open block; it is the
// die's entry in the STL's bank-major row of free counts (STL.free).
type die struct {
	mu         sync.Mutex
	freeBlocks []int
	open       [streams]openBlock
	freePages  *atomic.Int64
	validInBlk []int32
	// unlanded counts, per block, the units carved and not yet programmed: a
	// carve adds one, and releaseUnit takes it off once the program lands or
	// the unit is given up. Collection leaves a block with unlanded units
	// alone (pickVictimLocked, and collectDie's closing of the open blocks):
	// it would move a queued page that holds nothing yet, or erase the block
	// under the writer about to program it.
	unlanded []atomic.Int32
	state    []blockState // per block: in use, on the free list, or retired
	// gen counts, per block, the evacuations that emptied it for an erase. A
	// dead unit remembers its block's count from the moment it was taken
	// (takeSlot), and its frame is discarded only if the count has not moved
	// (discardUnits): a page of the block's next generation is someone else's.
	gen      []uint32
	discards []nvm.Word // discardUnits' batch for this die

	// collecting marks that one writer's collection owns victim selection and
	// evacuation on this die. It is a try-only claim, never a blocking lock:
	// no collector takes it by waiting. The one writer that waits for it to
	// clear is an overwrite that found no page (restoreUnit), and that wait
	// ends: a collector takes no space's lock, and the only thing it waits for
	// is the read grace set (readGrace), whose members wait on no writer.
	collecting bool
	gc         gcScratch // the claim holder's working memory
}

// blockState is where a block of a die is: in use (open, or closed and
// holding pages), on the free list, or retired.
type blockState uint8

const (
	blockInUse blockState = iota
	blockFree
	blockRetired
)

// Streams name a die's open blocks. Every die programs two blocks at once: an
// overwrite of a building block written recently goes to the hot block
// (overwriteStream); first writes, colder rewrites, collection survivors and
// fault relocations go to the default one. Pages that die young then share
// blocks with one another, and those blocks empty out before the collector
// reaches them (DESIGN.md "Two open blocks per die").
const (
	defaultStream = iota
	hotStream
	streams
)

// openBlock is one stream's block being programmed: block -1 while the
// stream holds none. An exhausted block stays the stream's, and out of the
// collector's reach, until the stream's next carve opens another.
type openBlock struct {
	block int
	next  int // the next page to program
}

// left is how many pages of the block are still to program.
func (o *openBlock) left(pagesPerBlock int) int {
	if o.block < 0 {
		return 0
	}
	return pagesPerBlock - o.next
}

// isOpen reports whether block b is one of the die's open blocks. Caller
// holds d.mu.
func (d *die) isOpen(b int) bool {
	for s := range d.open {
		if d.open[s].block == b {
			return true
		}
	}
	return false
}

// carve takes the next programmable page of the die for stream: a run of
// one. With no free block left it takes the page from the other stream's
// open block instead, so a carve fails only when the die has no free page at
// all. Caller holds d.mu.
func (d *die) carve(channel, bank, pagesPerBlock, stream int) (nvm.PPA, bool) {
	if p, n := d.carveRun(channel, bank, pagesPerBlock, stream, 1); n == 1 {
		return p, true
	}
	for s := range d.open {
		if d.open[s].left(pagesPerBlock) > 0 {
			p, _ := d.carveRun(channel, bank, pagesPerBlock, s, 1)
			return p, true
		}
	}
	return nvm.PPA{}, false
}

// carveRun takes up to n pages of stream in a row from one block: what is
// left of the stream's open block, or a fresh block once that is exhausted.
// It returns the first page and how many it took, none if the block is
// exhausted and no free block is left. The units count as unlanded until
// their programs land; a caller that abandons one instead hands it to
// releaseUnit. Caller holds d.mu.
func (d *die) carveRun(channel, bank, pagesPerBlock, stream, n int) (nvm.PPA, int) {
	o := &d.open[stream]
	if o.left(pagesPerBlock) == 0 {
		if len(d.freeBlocks) == 0 {
			return nvm.PPA{}, 0
		}
		o.block, o.next = d.freeBlocks[0], 0
		d.freeBlocks = d.freeBlocks[1:]
		d.state[o.block] = blockInUse
	}
	n = min(n, o.left(pagesPerBlock))
	p := nvm.PPA{Channel: channel, Bank: bank, Block: o.block, Page: o.next}
	o.next += n
	d.freePages.Add(-int64(n))
	d.unlanded[o.block].Add(int32(n))
	return p, n
}

// room is how many default-stream units the die can supply in a row before
// takeUnit would collect it: while its free pages stay above low, and without
// opening its last free block (lastBlockTarget). Caller holds d.mu.
func (d *die) room(pagesPerBlock int, low int64) int64 {
	byLow := d.freePages.Load() - low
	byBlock := int64(d.open[defaultStream].left(pagesPerBlock)) + int64(max(len(d.freeBlocks)-1, 0))*int64(pagesPerBlock)
	return max(min(byLow, byBlock), 0)
}

// closeOpen gives up stream's open block: its unprogrammed tail is no longer
// free space, and the block becomes an ordinary in-use one. Caller holds d.mu.
func (d *die) closeOpen(stream, pagesPerBlock int) {
	d.freePages.Add(-int64(d.open[stream].left(pagesPerBlock)))
	d.open[stream].block = -1
}

// releaseUnit ends a carved unit's wait to land: its program landed, or it
// never will, and then its page stays consumed until the block is erased.
// Either way the block is collectable again.
func (t *STL) releaseUnit(p nvm.PPA) {
	t.die(p.Channel, p.Bank).unlanded[p.Block].Add(-1)
}

func (t *STL) die(channel, bank int) *die { return t.dies[channel*t.geo.Banks+bank] }

// lowWaterPages is the per-die free-page threshold at or below which a carve
// collects the die first (the paper's 10 %).
func (t *STL) lowWaterPages() int64 {
	return int64(t.cfg.GCLowWater * float64(t.geo.PagesPerBank()))
}

// takeUnit carves the next programmable page of stream out of the given die,
// collecting it first, on the caller's goroutine and at the caller's
// simulated time, when its free pages are at the low mark or the carve would
// open its last free block. Collection therefore happens at points fixed by
// the sequence of writes, and a run driven one write at a time replays
// exactly. takeUnit does not touch reverse maps; callers bind the unit to a
// building block.
func (t *STL) takeUnit(at sim.Time, channel, bank, stream int, flush func() error) (nvm.PPA, sim.Time, error) {
	d := t.die(channel, bank)
	low := t.lowWaterPages()
	if d.freePages.Load() <= low {
		var err error
		if at, err = t.reclaim(at, channel, bank, flush, low); err != nil {
			return nvm.PPA{}, at, err
		}
	}
	// One critical section unless the carve would open the die's last free
	// block: then collection runs first, outside the lock.
	d.mu.Lock()
	if target, ok := d.lastBlockTarget(stream, t.geo.PagesPerBlock, low); ok {
		d.mu.Unlock()
		var err error
		if at, err = t.reclaim(at, channel, bank, flush, target); err != nil {
			return nvm.PPA{}, at, err
		}
		d.mu.Lock()
	}
	p, ok := d.carve(channel, bank, t.geo.PagesPerBlock, stream)
	d.mu.Unlock()
	if !ok {
		return nvm.PPA{}, at, fmt.Errorf("stl: die ch%d/bk%d out of free blocks: %w", channel, bank, ErrCapacity)
	}
	if t.carved != nil {
		t.carved(p)
	}
	return p, at, nil
}

// reclaim is the collection step: drain the caller's deferred program batch,
// if it has one (the write path, a compressed block's store and Flush do), so
// that GC's device operations keep the issue order, then collect the die
// toward target.
func (t *STL) reclaim(at sim.Time, channel, bank int, flush func() error, target int64) (sim.Time, error) {
	if flush != nil {
		if err := flush(); err != nil {
			return at, err
		}
	}
	return t.collectDie(at, channel, bank, target)
}

// lastBlockTarget reports whether carving for stream would open the die's
// last free block and, if so, how far inline collection goes first: to the
// low mark while no other stream holds a block, and otherwise until a whole
// block is free beside what is left of the open ones.
// Two streams could otherwise take the die's last free blocks between them
// and leave the collector only the default block's tail to relocate into.
// Caller holds d.mu.
func (d *die) lastBlockTarget(stream, pagesPerBlock int, low int64) (int64, bool) {
	if d.open[stream].left(pagesPerBlock) > 0 || len(d.freeBlocks) > 1 {
		return 0, false
	}
	target, others := low, false
	var left int64
	for s := range d.open {
		left += int64(d.open[s].left(pagesPerBlock))
		others = others || (s != stream && d.open[s].block >= 0)
	}
	if others {
		target = max(low, left+int64(pagesPerBlock))
	}
	return target, true
}

// allocateUnit implements the §4.2 allocation policy for page slot idx of a
// building block:
//
//  1. an empty block starts on a random channel and bank;
//  2. otherwise the unit comes from the block's least-used channel, in the
//     same bank as the most recently allocated unit;
//  3. once the block has used every channel in that bank, it moves to an
//     unused or least-used bank;
//  4. when every channel/bank combination is used, the least-used bank is
//     chosen and the sweep repeats.
//
// The chosen die may be full; the policy then falls over to the next
// candidate in least-used order. The counts are use, the request's count of
// blk (blockUse), which the first unit placed in the block reads off its
// slots and every unit placed adds to. Callers hold the space's write lock
// (or an equivalent exclusive context), which protects blk, use and s.
//
// With a plan, a unit its die can supply without collecting is only planned
// there (planUnit): allocateUnit returns noUnit, and the plan's carve gives
// the unit to the op queued next, page ref of the plan's owner. Any other
// take carves the plan first, so the die sees its carves, and collections, in
// the order in which the units were placed.
func (t *STL) allocateUnit(at sim.Time, s *Space, blk *BuildingBlock, use *blockUse, flush func() error, plan *unitPlan, ref uint32) (nvm.PPA, sim.Time, error) {
	if limit := t.effectiveMaxPages(); t.usedPages.Load()+plan.pending() >= limit {
		return nvm.PPA{}, at, fmt.Errorf("stl: logical capacity exhausted (%d pages): %w", limit, ErrCapacity)
	}
	if !use.counted {
		use.count(blk, t.geo, &t.lay)
	}
	if t.cfg.NaiveAllocation {
		return t.allocateNaive(at, blk, use, flush) // which plans nothing
	}
	var bank int
	switch {
	case use.used == 0:
		bank = t.randIntn(t.geo.Banks) // rule 1
	case use.used%t.geo.Channels == 0:
		bank = t.leastUsedBank(use) // rules 3/4: channel sweep complete
	default:
		bank = blk.lastDie % t.geo.Banks // rule 2
	}

	// Try banks in least-used order starting from the policy's choice, and
	// channels in least-used order within each bank, skipping full dies. The
	// first candidate almost always supplies the unit: it is read off the
	// block's sweep (leastChannel), and the rest of the order is selected one
	// candidate at a time, only when a take fails.
	planned := t.unplanned
	for bk := bank; bk >= 0; bk = nextBank(use.banks, bank, bk) {
		// freePages is read without the die lock: it is a placement
		// heuristic, and a slightly stale value only reorders fall-over
		// candidates. A die's count is its free pages less the units planned
		// on it, which is what it would read had they been carved.
		row := t.free[bk*t.geo.Channels:][:t.geo.Channels]
		if plan != nil {
			planned = plan.count[bk*t.geo.Channels:][:t.geo.Channels]
		}
		var free []int64 // the bank's snapshot, taken at its first take
		for ch := use.leastChannel(row, planned); ch >= 0; ch = nextChannel(use.chans, free, ch) {
			if plan != nil && t.planUnit(plan, ch, bk, ref) {
				t.place(blk, use, ch, bk)
				return noUnit, at, nil
			}
			if free == nil {
				// The snapshot keeps the fall-over order fixed while failed
				// takeUnit calls collect the dies they visit.
				if len(s.dieFree) != t.geo.Channels {
					s.dieFree = make([]int64, t.geo.Channels)
				}
				free = s.dieFree
				for c := range free {
					free[c] = freeLess(row, planned, c)
				}
			}
			if err := t.carvePlan(plan); err != nil {
				return nvm.PPA{}, at, err
			}
			p, ready, err := t.takeUnit(at, ch, bk, defaultStream, flush)
			if errors.Is(err, ErrCapacity) {
				continue // die exhausted; try the next candidate
			}
			if err != nil {
				return nvm.PPA{}, at, err // the writer's queue did not land, or the collection failed
			}
			t.place(blk, use, ch, bk)
			return p, ready, nil
		}
	}
	return nvm.PPA{}, at, fmt.Errorf("stl: no die can supply a free unit: %w", ErrCapacity)
}

// place counts a unit placed in blk on channel ch of bank bk on use, the
// request's count of blk, and makes the unit's die the block's last.
func (t *STL) place(blk *BuildingBlock, use *blockUse, ch, bk int) {
	use.note(ch, bk)
	blk.lastDie = ch*t.geo.Banks + bk
}

// freeLess is channel ch's free pages in row, less the units planned on it.
func freeLess(row []atomic.Int64, planned []int32, ch int) int64 {
	return row[ch].Load() - int64(planned[ch])
}

// noUnit is the unit of a queued program whose unit is planned and not yet
// carved, or was never carved (unitPlan).
var noUnit = nvm.PPA{Channel: -1}

// unitPlan is a write request's fresh units that are placed and not yet
// carved. Under §4.2 each unit of a building block goes to another die, so
// carving and binding each as it is placed would lock a different die, carve,
// store a reverse entry and update its counters for every page. A plan holds
// the units back instead and carves them at the request's flush points
// (carvePlan) one die at a time: one lock per die, and one run of reverse
// entries and one update of the free and unlanded counts per block.
//
// A unit is planned only where its die can supply it without collecting
// (planUnit), and every take outside the plan — a unit that would collect, an
// overwrite's replacement, a staged page — carves the plan first. So each die
// carves the same units in the same order as when every unit was carved as
// it was placed, collection runs at the same unit, and placement and timing
// are unchanged. Records hold indexes, not pointers: the queued op the unit
// is for and its page, ref, which the owner resolves.
type unitPlan struct {
	ops   *[]nvm.ProgramOp // the owner's queued programs
	owner queueOwner
	units []plannedUnit
	// Per die, indexed as STL.free (bank-major): the units planned on it, and
	// 1 + how many it could supply when the plan asked under its lock (0: not
	// asked).
	count []int32
	room  []int64
	dies  []int32 // the dies met, in the order met
	order []int32 // carvePlan's grouping of units by die
	// err, when a carve found no page for a unit, fails the request; cut is
	// the first op left without a unit, and nothing from it on may land.
	err error
	cut int
}

// plannedUnit is a unit of a plan: the op it is for, its page, its die
// (bank-major) and, once carved, its word.
type plannedUnit struct {
	op, die int32
	ref     uint32
	w       nvm.Word
}

// queueOwner is the writer a programQueue and its plan belong to: a request
// (its stages are the plan's page references) or the LBA (its logical pages).
type queueOwner interface {
	// page returns ref's slot and its reverse entry.
	page(ref uint32) (*pageSlot, revEntry)
	// fillPending makes every queued frame that does not hold its page yet
	// the page its op programs; ps is the page size.
	fillPending(ps int64)
}

// reserve readies p for a request of at most n units on an STL of dies dies.
func (p *unitPlan) reserve(n, dies int) {
	p.units = slices.Grow(p.units, n)
	if len(p.count) != dies {
		p.count, p.room = make([]int32, dies), make([]int64, dies)
	}
}

// pending is how many units p holds that no carve has bound yet.
func (p *unitPlan) pending() int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.units))
}

// landable carves p and returns how many of the n queued ops may land — all
// of them unless a carve left one without a unit — and the error that fails
// the request then. It clears that failure: the flush that asks lands or
// gives up every op.
func (t *STL) landable(p *unitPlan, n int) (int, error) {
	err := t.carvePlan(p)
	if err != nil {
		n, p.err = p.cut, nil
	}
	return n, err
}

// planUnit plans the unit for the op queued next, page ref, on die (ch, bk)
// if the die can supply it, after the units already planned there, without
// takeUnit collecting it. Far from both marks the die's free pages settle
// that without its lock: a carve opens the die's last free block only when
// at most two blocks' worth of pages are free (the stream's block exhausted,
// one free block, the other stream's tail). Nearer, the die is asked under
// its lock, once a plan, how many it can supply (die.room).
func (t *STL) planUnit(p *unitPlan, ch, bk int, ref uint32) bool {
	i := bk*t.geo.Channels + ch
	n := int64(p.count[i])
	if n == 0 && p.room[i] == 0 {
		p.dies = append(p.dies, int32(i))
	}
	if low := t.lowWaterPages(); p.room[i] == 0 && t.free[i].Load()-n <= max(low, 2*int64(t.geo.PagesPerBlock)) {
		d := t.die(ch, bk)
		d.mu.Lock()
		p.room[i] = 1 + d.room(t.geo.PagesPerBlock, low)
		d.mu.Unlock()
	}
	if p.room[i] != 0 && n >= p.room[i]-1 {
		return false
	}
	p.count[i]++
	p.units = append(p.units, plannedUnit{op: int32(len(*p.ops)), die: int32(i), ref: ref})
	return true
}

// carvePlan carves and binds every unit of p (nil: none), one die at
// a time, giving each its op's page, and empties p. It returns the failure
// that a unit left without a page raised, in this carve or an earlier one.
func (t *STL) carvePlan(p *unitPlan) error {
	if p == nil {
		return nil
	}
	if len(p.units) > 0 {
		if t.carving != nil {
			t.carving(p)
		}
		// Group the units by die, each die's in plan order: room becomes each
		// die's cursor into order, ending at its last unit.
		next := int64(0)
		for _, i := range p.dies {
			p.room[i], next = next, next+int64(p.count[i])
		}
		p.order = slices.Grow(p.order[:0], len(p.units))[:len(p.units)]
		for k := range p.units {
			i := p.units[k].die
			p.order[p.room[i]] = int32(k)
			p.room[i]++
		}
		var bound int64
		for _, i := range p.dies {
			if n := int64(p.count[i]); n > 0 {
				idx := p.order[p.room[i]-n : p.room[i]]
				k := t.carveDie(p, int(i), idx)
				bound += k
				p.order = append(p.order, idx[k:]...) // the die's rest, for takeRest
			}
			p.count[i], p.room[i] = 0, 0
		}
		t.usedPages.Add(bound)
		// The ops and slots take the carved units in plan order, the order they
		// sit in memory in, and not die by die; the rest get theirs next.
		rest := p.order[len(p.units):]
		slices.Sort(rest)
		ops := *p.ops
		for k := range p.units {
			if len(rest) > 0 && rest[0] == int32(k) {
				rest = rest[1:]
				continue
			}
			u := &p.units[k]
			ops[u.op].P = t.lay.PPA(u.w)
			slot, _ := p.owner.page(u.ref)
			slot.store(slotOf(u.w))
		}
		t.takeRest(p, p.order[len(p.units):])
		p.units, p.dies = p.units[:0], p.dies[:0]
	}
	return p.err
}

// carveDie carves and binds, under one lock of die i, as many of the units
// of p that idx names, all planned there, as the die can still supply
// without collecting — all of them, unless another writer carved from the
// die since the plan asked (takeRest) — and returns how many. A block's
// share is one run: of pages, of reverse entries, and of the free and
// unlanded counts.
func (t *STL) carveDie(p *unitPlan, i int, idx []int32) int64 {
	ch, bk := i%t.geo.Channels, i/t.geo.Channels
	d := t.die(ch, bk)
	d.mu.Lock()
	n := int(min(int64(len(idx)), d.room(t.geo.PagesPerBlock, t.lowWaterPages())))
	for k := 0; k < n; {
		first, run := d.carveRun(ch, bk, t.geo.PagesPerBlock, defaultStream, n-k)
		if run == 0 {
			panic("stl: a die ran out of pages within its room")
		}
		w := t.lay.Word(first)
		rev := t.rev[t.lay.Linear(w):][:run]
		for j := range rev {
			u := &p.units[idx[k+j]]
			_, e := p.owner.page(u.ref)
			e.valid = true
			rev[j] = e
			u.w = w + nvm.Word(j)
		}
		d.validInBlk[first.Block] += int32(run)
		k += run
	}
	d.mu.Unlock()
	if t.carved != nil || t.cache != nil {
		for _, k := range idx[:n] {
			u := &p.units[k]
			if t.carved != nil {
				t.carved(t.lay.PPA(u.w))
			}
			if t.cache != nil {
				_, e := p.owner.page(u.ref)
				t.cache.invalidateBlock(e.space, int64(e.block))
			}
		}
	}
	return int64(n)
}

// takeRest gives the units of p that idx names, which their dies could no
// longer supply in a run, today's path one by one: takeUnit on the planned
// die, which may collect it, then any die with a page
// (allocateRecoveryUnit). A unit no die has a page for is left without one
// (noUnit), and fails the request (unitPlan.err).
func (t *STL) takeRest(p *unitPlan, idx []int32) {
	ops := *p.ops
	for _, k := range idx {
		u := &p.units[k]
		ch, bk := int(u.die)%t.geo.Channels, int(u.die)/t.geo.Channels
		op := &ops[u.op]
		slot, e := p.owner.page(u.ref)
		unit, ready, err := t.takeUnit(op.At, ch, bk, defaultStream, nil)
		if err != nil {
			if np, ok := t.allocateRecoveryUnit(ch, bk); ok {
				unit, ready, err = np, op.At, nil
			}
		}
		if err != nil {
			op.P = noUnit
			if p.err == nil || int(u.op) < p.cut {
				p.err, p.cut = err, int(u.op)
			}
			continue
		}
		op.P, op.At = unit, ready
		t.bind(slot, e, unit)
	}
}

// allocateNaive is the ablation allocator: every unit of a block comes from
// one die chosen round-robin (with spill-over to neighbouring dies when
// full), so a block read engages a single channel. use is allocateUnit's.
func (t *STL) allocateNaive(at sim.Time, blk *BuildingBlock, use *blockUse, flush func() error) (nvm.PPA, sim.Time, error) {
	die := blk.lastDie
	if use.used == 0 || die < 0 {
		die = int(t.naiveNext.Add(1)-1) % len(t.dies)
	}
	for off := 0; off < len(t.dies); off++ {
		d := (die + off) % len(t.dies)
		ch, bk := d/t.geo.Banks, d%t.geo.Banks
		p, ready, err := t.takeUnit(at, ch, bk, defaultStream, flush)
		if errors.Is(err, ErrCapacity) {
			continue
		}
		if err != nil {
			return nvm.PPA{}, at, err
		}
		t.place(blk, use, ch, bk)
		return p, ready, nil
	}
	return nvm.PPA{}, at, fmt.Errorf("stl: no die can supply a free unit: %w", ErrCapacity)
}

// allocateReplacement picks a unit of stream from the same channel and bank
// as the overwritten unit at old (§4.2: "the STL simply picks a page from the
// same channel and bank as the overwritten unit"); the stream only chooses
// which of that die's open blocks the page goes to (overwriteStream), so
// placement across channels and banks, and every read's timing, are the
// paper's. A die that collection leaves without a free page — it has no room
// to relocate into, or another writer's collection holds it — falls over to
// any die with room (allocateRecoveryUnit): data placement
// beats strict same-die replacement (documented deviation, see DESIGN.md
// "Write path & GC"). A die that can be collected never gets there.
func (t *STL) allocateReplacement(at sim.Time, old nvm.Word, stream int, flush func() error) (nvm.PPA, sim.Time, error) {
	ch, bk := t.lay.Channel(old), t.lay.Bank(old)
	p, done, err := t.takeUnit(at, ch, bk, stream, flush)
	if !errors.Is(err, ErrCapacity) {
		return p, done, err
	}
	if np, ok := t.allocateRecoveryUnit(ch, bk); ok {
		return np, at, nil
	}
	return p, done, err
}

// overwriteStream is the stream an overwrite of blk lands in: the hot one if
// the block was last written less than one erase block per die of host
// programs before now (t.progs when the request began), the default one
// otherwise. The window comes from the geometry and nothing tunes it: any
// window from half a block to four blocks per die buys most of the gain
// (DESIGN.md "Two open blocks per die").
func (t *STL) overwriteStream(blk *BuildingBlock, now int64) int {
	if now-blk.lastWrite < int64(t.geo.PagesPerBlock)*int64(len(t.dies)) {
		return hotStream
	}
	return defaultStream
}

// randIntn draws from the shared policy RNG under its lock.
func (t *STL) randIntn(n int) int {
	t.rngMu.Lock()
	v := t.rng.Intn(n)
	t.rngMu.Unlock()
	return v
}

// leastUsedBank returns the bank with the fewest units in use, breaking ties
// randomly to spread blocks across the device.
func (t *STL) leastUsedBank(use *blockUse) int {
	least, ties := 0, 0
	for b, u := range use.banks {
		switch {
		case u < use.banks[least]:
			least, ties = b, 1
		case u == use.banks[least]:
			ties++
		}
	}
	if ties == 1 {
		return least
	}
	// The k-th of the tied banks, in index order.
	k := t.randIntn(ties)
	for b, u := range use.banks {
		if u == use.banks[least] {
			if k == 0 {
				return b
			}
			k--
		}
	}
	return least
}

// nextBank yields the banks to try, one per call: first the preferred bank,
// then the rest in ascending block-usage order, equally-used banks by index.
// prev is the bank yielded last (start from preferred itself); -1 ends the
// sequence.
func nextBank(use []uint16, preferred, prev int) int {
	next := -1
	for b := range use {
		if b == preferred {
			continue
		}
		after := prev == preferred || use[b] > use[prev] || (use[b] == use[prev] && b > prev)
		if after && (next < 0 || use[b] < use[next]) {
			next = b
		}
	}
	return next
}

// nextChannel yields one bank's channels, one per call, in ascending
// block-usage order; among equally-used channels the one whose die has the
// most free pages first, then by index. free is the bank's free-page
// snapshot, prev the channel yielded last (the order starts at the block's
// leastChannel); -1 ends the sequence.
func nextChannel(use []uint16, free []int64, prev int) int {
	next := -1
	for ch := range use {
		if channelBefore(use, free, prev, ch) && (next < 0 || channelBefore(use, free, ch, next)) {
			next = ch
		}
	}
	return next
}

// channelBefore orders two channels of one bank for nextChannel.
func channelBefore(use []uint16, free []int64, a, b int) bool {
	if use[a] != use[b] {
		return use[a] < use[b]
	}
	if free[a] != free[b] {
		return free[a] > free[b]
	}
	return a < b
}

// bindUnit makes the freshly carved unit p hold page pageIdx of blk, building
// block blockIdx of s: it points the page's slot at p, records the reverse
// mapping and counts the unit live. Overwrites pair a takeSlot with a
// bindUnit, so usedPages stays balanced.
//
// bindUnit and invalidateUnit are the central cache-invalidation hooks: every
// path that changes which physical unit backs a building-block page — writes,
// overwrites, zero elision, program-fault relocation, staged programs,
// delete, resize — goes through one or both, and GC evacuation's commitMove
// drops the entry too. They take the owning die's lock internally (the rev
// table is sharded by die) and require the unit's space to be write-locked
// or otherwise exclusive, so no concurrent reader can observe the transition.
// Invalidation is strict: the whole block entry is dropped even when the
// page's bytes are unchanged (a GC move).
func (t *STL) bindUnit(s *Space, blk *BuildingBlock, blockIdx int64, pageIdx int, p nvm.PPA) {
	t.bind(&blk.pages[pageIdx], revEntry{space: s.id, block: uint32(blockIdx), page: int32(pageIdx)}, p)
}

// bind points slot, the page e names (slotAt), at the freshly carved unit p,
// records e as p's reverse entry and counts the unit live.
func (t *STL) bind(slot *pageSlot, e revEntry, p nvm.PPA) {
	if t.cache != nil {
		t.cache.invalidateBlock(e.space, int64(e.block))
	}
	w := t.lay.Word(p)
	slot.store(slotOf(w))
	d := t.dies[t.lay.Die(w)]
	e.valid = true
	d.mu.Lock()
	t.rev[t.lay.Linear(w)] = e
	d.validInBlk[p.Block]++
	d.mu.Unlock()
	t.usedPages.Add(1)
}

// unbindLocked marks the unit at w dead in the reverse table, on die d, and
// returns the entry it had; false if it was not live. Caller holds d.mu.
func (t *STL) unbindLocked(d *die, w nvm.Word) (revEntry, bool) {
	idx := t.lay.Linear(w)
	e := t.rev[idx]
	if !e.valid {
		return e, false
	}
	t.rev[idx].valid = false
	d.validInBlk[t.lay.Block(w)]--
	return e, true
}

// invalidateUnit drops the reverse mapping and valid count of the unit at w,
// along with any cached copy of the building block the unit belonged to. It
// empties slot too, in the same critical section, unless slot is nil — a
// unit not yet landed, which no collector touches — and does nothing,
// returning false, if slot no longer names w. It returns the generation of
// w's block as of that critical section (die.gen).
func (t *STL) invalidateUnit(w nvm.Word, slot *pageSlot) (uint32, bool) {
	d := t.dies[t.lay.Die(w)]
	d.mu.Lock()
	if slot != nil && !slot.cas(slotOf(w), 0) {
		d.mu.Unlock()
		return 0, false
	}
	gen := d.gen[t.lay.Block(w)]
	e, ok := t.unbindLocked(d, w)
	d.mu.Unlock()
	if ok {
		t.usedPages.Add(-1)
		if t.cache != nil {
			// The context that invalidates (space write lock, delete, resize)
			// also prevents concurrent readers of the block, so dropping the
			// entry after the rev update cannot race a stale re-read.
			t.cache.invalidateBlock(e.space, int64(e.block))
		}
	}
	return gen, true
}

// takeSlot empties slot and invalidates the unit it named, which it returns
// as a dead unit for discardUnits; false if the slot was empty. The swap and
// the invalidation are one step under the lock of the unit's die — the lock a
// collector commits a move of the page under (commitMove) — so of the owner
// and a collector exactly one retires each unit the slot named.
func (t *STL) takeSlot(slot *pageSlot) (deadUnit, bool) {
	for {
		v := slot.load()
		if !v.allocated() {
			return deadUnit{}, false
		}
		if gen, ok := t.invalidateUnit(v.word(), slot); ok {
			return deadUnit{w: v.word(), gen: gen}, true
		} // else a collector moved the page meanwhile
	}
}

// deadUnit is a unit its owner took out of its slot, whose frame the device
// may have back (nvm.DiscardPages) once what replaced the page is on flash.
type deadUnit struct {
	w   nvm.Word
	gen uint32 // its block's generation when it was taken (die.gen)
	// after is how many of the taker's queued programs must land first: up
	// to and including the replacement's, or, for a release, which replaces
	// the page with nothing, those queued before it.
	after int32
}

// discardUnits gives the device back the frames of units, given that the
// first landed of the programs their after fields count have landed. A unit
// keeps its frame, for its block's erase to take, in three cases:
//
//   - its replacement did not land, so the page is still what a restart
//     would have to read;
//   - its block was emptied for an erase since it was taken (the generation
//     moved): the address may hold a page programmed since;
//   - a collection holds its die (die.collecting): the collector may have
//     found the unit live before it was taken and hold a read of it.
//
// No reader needs a rule of its own: a reader holds its space's read lock
// while it uses an alias, the taker holds the write lock, and taking the
// unit dropped its building block's cache entry. The units are sorted by
// word, whose high bits are its die, so each die is locked once.
func (t *STL) discardUnits(units []deadUnit, landed int) {
	if t.dev.Phantom() || len(units) == 0 {
		return
	}
	slices.SortFunc(units, func(a, b deadUnit) int { return cmp.Compare(a.w, b.w) })
	for i := 0; i < len(units); {
		die := t.lay.Die(units[i].w)
		d := t.dies[die]
		d.mu.Lock()
		ws := d.discards[:0]
		for ; i < len(units) && t.lay.Die(units[i].w) == die; i++ {
			if u := &units[i]; !d.collecting && int(u.after) <= landed && d.gen[t.lay.Block(u.w)] == u.gen {
				ws = append(ws, u.w)
			}
		}
		t.dev.DiscardPages(ws)
		d.discards = ws
		d.mu.Unlock()
	}
}

// restoreUnit undoes the takeSlot of an overwrite that found no replacement:
// w is the unit it took from slot, the page key names (a reverse entry). If w
// still holds the page — its reverse entry is untouched and its page
// programmed, so its block was not erased since — it is live again and back
// in the slot; otherwise the slot stays empty.
// A collection under way on w's die may be about to erase the block without
// having seen w live, so restoreUnit first waits it out: the one wait on a
// collector a writer makes.
// It cannot deadlock: a collector takes no space's lock and waits only for
// the read grace set, which a request joins after taking its own space's
// lock, so no member of it waits for this writer.
func (t *STL) restoreUnit(key revEntry, slot *pageSlot, w nvm.Word) {
	d := t.dies[t.lay.Die(w)]
	idx := t.lay.Linear(w)
	d.mu.Lock()
	for d.collecting {
		d.mu.Unlock()
		time.Sleep(2 * time.Microsecond)
		d.mu.Lock()
	}
	e := t.rev[idx]
	if held := !e.valid && e.space == key.space && e.block == key.block && e.page == key.page; !held || !t.dev.Programmed(t.lay.PPA(w)) {
		d.mu.Unlock()
		return
	}
	t.rev[idx].valid = true
	d.validInBlk[t.lay.Block(w)]++
	slot.store(slotOf(w)) // under d.mu, where a collector of w's die commits
	d.mu.Unlock()
	t.usedPages.Add(1)
}
