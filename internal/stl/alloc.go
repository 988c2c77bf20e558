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
// the free blocks' pages plus what is left of every open block.
type die struct {
	mu         sync.Mutex
	freeBlocks []int
	open       [streams]openBlock
	freePages  atomic.Int64
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

// carve takes the next programmable page of the die for stream, opening a
// fresh block when the stream's is exhausted. With no free block left it
// takes the page from the other stream's open block instead, so a carve
// fails only when the die has no free page at all. The unit counts as
// unlanded until its program lands; a caller that abandons it instead hands
// it to releaseUnit. Caller holds d.mu.
func (d *die) carve(channel, bank, pagesPerBlock, stream int) (nvm.PPA, bool) {
	o := &d.open[stream]
	if o.left(pagesPerBlock) == 0 {
		if len(d.freeBlocks) == 0 {
			for s := range d.open {
				if d.open[s].left(pagesPerBlock) > 0 {
					return d.carve(channel, bank, pagesPerBlock, s)
				}
			}
			return nvm.PPA{}, false
		}
		o.block, o.next = d.freeBlocks[0], 0
		d.freeBlocks = d.freeBlocks[1:]
		d.state[o.block] = blockInUse
	}
	p := nvm.PPA{Channel: channel, Bank: bank, Block: o.block, Page: o.next}
	o.next++
	d.freePages.Add(-1)
	d.unlanded[o.block].Add(1)
	return p, true
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
// candidate in least-used order. Callers hold the space's write lock (or an
// equivalent exclusive context), which protects blk and s.
func (t *STL) allocateUnit(at sim.Time, s *Space, blk *BuildingBlock, flush func() error) (nvm.PPA, sim.Time, error) {
	if limit := t.effectiveMaxPages(); t.usedPages.Load() >= limit {
		return nvm.PPA{}, at, fmt.Errorf("stl: logical capacity exhausted (%d pages): %w", limit, ErrCapacity)
	}
	if t.cfg.NaiveAllocation {
		return t.allocateNaive(at, s, blk, flush)
	}
	var bank int
	switch {
	case blk.used == 0:
		bank = t.randIntn(t.geo.Banks) // rule 1
	case blk.used%t.geo.Channels == 0:
		bank = t.leastUsedBank(blk) // rules 3/4: channel sweep complete
	default:
		bank = blk.lastBank // rule 2
	}

	// Try banks in least-used order starting from the policy's choice, and
	// channels in least-used order within each bank, skipping full dies. The
	// first candidate almost always supplies the unit, so the order is
	// selected one candidate at a time, not built and sorted.
	if len(s.dieFree) != t.geo.Channels {
		s.dieFree = make([]int64, t.geo.Channels)
	}
	free := s.dieFree
	for bk := bank; bk >= 0; bk = nextBank(blk.bankUse, bank, bk) {
		// freePages is read without the die lock, once per die: it is a
		// placement heuristic, and a slightly stale value only reorders
		// fall-over candidates. The snapshot keeps the order fixed while
		// failed takeUnit calls collect the dies they visit.
		for ch := range free {
			free[ch] = t.die(ch, bk).freePages.Load()
		}
		for ch := nextChannel(blk.chanUse, free, -1); ch >= 0; ch = nextChannel(blk.chanUse, free, ch) {
			p, ready, err := t.takeUnit(at, ch, bk, defaultStream, flush)
			if err != nil {
				continue // die exhausted; try the next candidate
			}
			blk.chanUse[ch]++
			blk.bankUse[bk]++
			blk.lastBank = bk
			blk.used++
			return p, ready, nil
		}
	}
	return nvm.PPA{}, at, fmt.Errorf("stl: no die can supply a free unit: %w", ErrCapacity)
}

// allocateNaive is the ablation allocator: every unit of a block comes from
// one die chosen round-robin (with spill-over to neighbouring dies when
// full), so a block read engages a single channel.
func (t *STL) allocateNaive(at sim.Time, s *Space, blk *BuildingBlock, flush func() error) (nvm.PPA, sim.Time, error) {
	var die int
	if blk.used > 0 && blk.lastBank >= 0 {
		die = blk.naiveDie
	} else {
		die = int(t.naiveNext.Add(1)-1) % len(t.dies)
	}
	for off := 0; off < len(t.dies); off++ {
		d := (die + off) % len(t.dies)
		ch, bk := d/t.geo.Banks, d%t.geo.Banks
		p, ready, err := t.takeUnit(at, ch, bk, defaultStream, flush)
		if err != nil {
			continue
		}
		blk.chanUse[ch]++
		blk.bankUse[bk]++
		blk.lastBank = bk
		blk.naiveDie = d
		blk.used++
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

// leastUsedBank returns the bank with the fewest units in blk, breaking ties
// randomly to spread blocks across the device.
func (t *STL) leastUsedBank(blk *BuildingBlock) int {
	least, ties := 0, 0
	for b, u := range blk.bankUse {
		switch {
		case u < blk.bankUse[least]:
			least, ties = b, 1
		case u == blk.bankUse[least]:
			ties++
		}
	}
	if ties == 1 {
		return least
	}
	// The k-th of the tied banks, in index order.
	k := t.randIntn(ties)
	for b, u := range blk.bankUse {
		if u == blk.bankUse[least] {
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
// snapshot, prev the channel yielded last (-1 to start); -1 ends the
// sequence.
func nextChannel(use []uint16, free []int64, prev int) int {
	next := -1
	for ch := range use {
		if (prev < 0 || channelBefore(use, free, prev, ch)) && (next < 0 || channelBefore(use, free, ch, next)) {
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
