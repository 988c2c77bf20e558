package stl

import (
	"fmt"
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
// shard): it guards the allocation cursor, the free-block list, and this
// die's slice of the reverse-lookup table (rev entries whose PPA lands on
// this die, plus validInBlk). freePages is additionally an atomic so
// watermark checks and placement heuristics can read it without taking mu;
// every mutation happens under mu so compound invariants stay intact.
type die struct {
	mu          sync.Mutex
	freeBlocks  []int
	activeBlock int
	nextPage    int
	freePages   atomic.Int64
	validInBlk  []int32
	// unbound counts, per block, the units carved and not yet bound. A carved
	// unit is in no reverse entry until its caller binds it, under a second
	// section of mu, so validInBlk alone makes a block whose only live pages
	// are in that window look empty: collection leaves a block with unbound
	// units alone (pickVictimLocked, and collectDie's closing of the open
	// block), or it would erase the block under the writer about to program it.
	unbound []int32
	retired []bool // per-block: removed from service (nil until first retirement)

	// collecting marks that one GC actor (the background worker or an inline
	// collector) owns victim selection and evacuation on this die. It is a
	// try-only claim, never a blocking lock: nothing that holds a space lock
	// ever blocks on a GC actor, which is what keeps the space->die order
	// deadlock-free.
	collecting bool
	gc         gcScratch // the claim holder's working memory
}

// carve takes the next programmable page of the die, opening a fresh block
// when the active one is exhausted. The unit counts as unbound until bindUnit
// binds it; a caller that abandons it instead hands it to releaseUnit. Caller
// holds d.mu.
func (d *die) carve(channel, bank, pagesPerBlock int) (nvm.PPA, bool) {
	if d.activeBlock < 0 || d.nextPage >= pagesPerBlock {
		if len(d.freeBlocks) == 0 {
			return nvm.PPA{}, false
		}
		d.activeBlock = d.freeBlocks[0]
		d.freeBlocks = d.freeBlocks[1:]
		d.nextPage = 0
	}
	p := nvm.PPA{Channel: channel, Bank: bank, Block: d.activeBlock, Page: d.nextPage}
	d.nextPage++
	d.freePages.Add(-1)
	d.unbound[d.activeBlock]++
	return p, true
}

// releaseUnit gives up a carved unit that will never be bound: its page stays
// consumed until the block is erased, and the block is collectable again.
func (t *STL) releaseUnit(p nvm.PPA) {
	d := t.die(p.Channel, p.Bank)
	d.mu.Lock()
	d.unbound[p.Block]--
	d.mu.Unlock()
}

// carvable reports whether carve would succeed. Caller holds d.mu.
func (d *die) carvable(pagesPerBlock int) bool {
	return (d.activeBlock >= 0 && d.nextPage < pagesPerBlock) || len(d.freeBlocks) > 0
}

func (t *STL) die(channel, bank int) *die { return t.dies[channel*t.geo.Banks+bank] }

// allocCtx carries the per-request context that allocation and garbage
// collection need: the deferred-program flush hook (the write path, a
// compressed block's store and Flush install it so their queued programs land
// before GC issues any device operation, keeping the issue order), and the space
// whose write lock the request already holds (so an inline GC commit treats
// it as owned instead of try-locking it against itself).
type allocCtx struct {
	flush func() error
	held  *Space
}

// lowWaterPages is the per-die free-page threshold below which collection is
// wanted; criticalWaterPages is where a foreground write stops trusting the
// background worker and reclaims inline (half the low-water reserve).
func (t *STL) lowWaterPages() int64 {
	return int64(t.cfg.GCLowWater * float64(t.geo.PagesPerBank()))
}

func (t *STL) criticalWaterPages() int64 { return t.lowWaterPages() / 2 }

// highWaterPages is where the background worker stops collecting a die; it
// sits above the low mark so each worker pass buys a batch of foreground
// allocations before the next kick.
func (t *STL) highWaterPages() int64 { return t.lowWaterPages() + t.lowWaterPages()/2 }

// takeUnit carves the next programmable page out of the given die. With
// synchronous GC (Config.BackgroundGC unset) collection runs inline at
// exactly the original trigger points, so single-threaded runs are
// bit-identical to the pre-concurrent path. With the background worker
// enabled, crossing the low-water mark only kicks the worker; the foreground
// write blocks on reclamation solely when the die is critically dry.
// takeUnit does not touch reverse maps; callers bind the unit to a building
// block.
func (t *STL) takeUnit(at sim.Time, channel, bank int, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	var (
		p   nvm.PPA
		err error
	)
	if d := t.die(channel, bank); t.cfg.BackgroundGC {
		p, at, err = t.takeUnitConcurrent(at, d, channel, bank, ac)
	} else {
		p, at, err = t.takeUnitInline(at, d, channel, bank, ac)
	}
	if err == nil && t.carved != nil {
		t.carved(p)
	}
	return p, at, err
}

func (t *STL) takeUnitInline(at sim.Time, d *die, channel, bank int, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	low := t.lowWaterPages()
	if d.freePages.Load() <= low {
		var err error
		if at, err = t.reclaim(at, channel, bank, ac, low); err != nil {
			return nvm.PPA{}, at, err
		}
	}
	// One critical section unless the carve would open the die's last free
	// block: then collection runs first, outside the lock.
	d.mu.Lock()
	if (d.activeBlock < 0 || d.nextPage >= t.geo.PagesPerBlock) && len(d.freeBlocks) <= 1 {
		d.mu.Unlock()
		var err error
		if at, err = t.reclaim(at, channel, bank, ac, low); err != nil {
			return nvm.PPA{}, at, err
		}
		d.mu.Lock()
	}
	p, ok := d.carve(channel, bank, t.geo.PagesPerBlock)
	d.mu.Unlock()
	if !ok {
		return nvm.PPA{}, at, fmt.Errorf("stl: die ch%d/bk%d out of free blocks: %w", channel, bank, ErrCapacity)
	}
	return p, at, nil
}

// reclaim is the synchronous-mode collection step: drain any deferred
// program batch (so GC's device operations keep the issue order), then
// collect the die toward target.
func (t *STL) reclaim(at sim.Time, channel, bank int, ac *allocCtx, target int64) (sim.Time, error) {
	if ac != nil && ac.flush != nil {
		if err := ac.flush(); err != nil {
			return at, err
		}
	}
	done, _, err := t.collectDie(at, channel, bank, ac, target)
	return done, err
}

func (t *STL) takeUnitConcurrent(at sim.Time, d *die, channel, bank int, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	low := t.lowWaterPages()
	critical := t.criticalWaterPages()
	d.mu.Lock()
	free := d.freePages.Load()
	var p nvm.PPA
	ok := false
	if free > critical {
		// Above the critical mark every free page is fair game (free pages
		// always live in the open block or the free list, so the carve cannot
		// fail here).
		p, ok = d.carve(channel, bank, t.geo.PagesPerBlock)
	}
	d.mu.Unlock()
	if free <= low {
		t.kickGC()
	}
	if ok {
		return p, at, nil
	}
	// Critically dry: reclaim inline (or wait out whoever holds the die's GC
	// claim), with a bounded wall-clock stall before escalating to ErrMedia.
	var err error
	if at, err = t.reclaimDry(at, channel, bank, ac); err != nil {
		return nvm.PPA{}, at, err
	}
	d.mu.Lock()
	p, ok = d.carve(channel, bank, t.geo.PagesPerBlock)
	d.mu.Unlock()
	if !ok {
		return nvm.PPA{}, at, fmt.Errorf("stl: die ch%d/bk%d out of free blocks: %w", channel, bank, ErrCapacity)
	}
	return p, at, nil
}

const (
	// gcStallPoll is how often a critically-dry foreground write re-checks a
	// die whose GC claim another actor holds.
	gcStallPoll = 50 * time.Microsecond
	// gcStallLimit bounds the total wall-clock time a foreground write waits
	// on reclamation before escalating to ErrMedia.
	gcStallLimit = 250 * time.Millisecond
)

// reclaimDry is the background-mode slow path: the die is at or below the
// critical watermark (or cannot open a block), so the write must reclaim
// inline or wait for the actor that holds the die's GC claim. All wall-clock
// time spent here is charged to GCStallNs; by construction it is only
// entered below the critical mark, so a write above the low watermark never
// stalls on GC.
func (t *STL) reclaimDry(at sim.Time, channel, bank int, ac *allocCtx) (sim.Time, error) {
	d := t.die(channel, bank)
	start := time.Now()
	defer func() { t.gcStallNs.Add(time.Since(start).Nanoseconds()) }()
	if ac != nil && ac.flush != nil {
		if err := ac.flush(); err != nil {
			return at, err
		}
	}
	critical := t.criticalWaterPages()
	for {
		d.mu.Lock()
		usable := d.carvable(t.geo.PagesPerBlock) && d.freePages.Load() > 0
		recovered := d.freePages.Load() > critical
		d.mu.Unlock()
		if usable && recovered {
			return at, nil
		}
		done, outcome, err := t.collectDie(at, channel, bank, ac, critical)
		if err != nil {
			return at, err
		}
		switch outcome {
		case gcProgress:
			at = sim.Max(at, done)
			continue
		case gcNothing:
			// Nothing reclaimable: a genuine capacity condition. Carve what is
			// left (the caller falls over to another die or reports
			// ErrCapacity) instead of burning the stall budget.
			return at, nil
		}
		// gcBusy: another actor owns the claim (or holds the space locks the
		// commit needs); wait for it to release or replenish the die.
		if time.Since(start) > gcStallLimit {
			return at, fmt.Errorf("stl: die ch%d/bk%d critically dry and reclamation stalled: %w",
				channel, bank, ErrMedia)
		}
		time.Sleep(gcStallPoll)
	}
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
func (t *STL) allocateUnit(at sim.Time, s *Space, blk *BuildingBlock, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	if limit := t.effectiveMaxPages(); t.usedPages.Load() >= limit {
		return nvm.PPA{}, at, fmt.Errorf("stl: logical capacity exhausted (%d pages): %w", limit, ErrCapacity)
	}
	if t.cfg.NaiveAllocation {
		return t.allocateNaive(at, s, blk, ac)
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
			p, ready, err := t.takeUnit(at, ch, bk, ac)
			if err != nil {
				continue // die exhausted; try the next candidate
			}
			blk.chanUse[ch]++
			blk.bankUse[bk]++
			blk.lastBank = bk
			blk.used++
			s.allocatedPages++
			return p, ready, nil
		}
	}
	return nvm.PPA{}, at, fmt.Errorf("stl: no die can supply a free unit: %w", ErrCapacity)
}

// allocateNaive is the ablation allocator: every unit of a block comes from
// one die chosen round-robin (with spill-over to neighbouring dies when
// full), so a block read engages a single channel.
func (t *STL) allocateNaive(at sim.Time, s *Space, blk *BuildingBlock, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	var die int
	if blk.used > 0 && blk.lastBank >= 0 {
		die = blk.naiveDie
	} else {
		die = int(t.naiveNext.Add(1)-1) % len(t.dies)
	}
	for off := 0; off < len(t.dies); off++ {
		d := (die + off) % len(t.dies)
		ch, bk := d/t.geo.Banks, d%t.geo.Banks
		p, ready, err := t.takeUnit(at, ch, bk, ac)
		if err != nil {
			continue
		}
		blk.chanUse[ch]++
		blk.bankUse[bk]++
		blk.lastBank = bk
		blk.naiveDie = d
		blk.used++
		s.allocatedPages++
		return p, ready, nil
	}
	return nvm.PPA{}, at, fmt.Errorf("stl: no die can supply a free unit: %w", ErrCapacity)
}

// allocateReplacement picks a unit from the same channel and bank as the
// overwritten unit at old (§4.2: "the STL simply picks a page from the same
// channel and bank as the overwritten unit"). With the background worker
// enabled, a dry die falls over to any die with room — data placement beats
// strict same-die replacement once foreground writes no longer wait for inline
// collection (documented deviation, see DESIGN.md); synchronous mode keeps the
// strict behaviour.
func (t *STL) allocateReplacement(at sim.Time, old nvm.Word, ac *allocCtx) (nvm.PPA, sim.Time, error) {
	ch, bk := t.lay.Channel(old), t.lay.Bank(old)
	p, done, err := t.takeUnit(at, ch, bk, ac)
	if err == nil || !t.cfg.BackgroundGC {
		return p, done, err
	}
	if np, ok := t.allocateRecoveryUnit(ch, bk); ok {
		return np, at, nil
	}
	return p, done, err
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
// mapping and counts the unit live. Overwrites pair an invalidateUnit with a
// bindUnit, so usedPages stays balanced.
//
// bindUnit and invalidateUnit are the central cache-invalidation hooks: every
// path that changes which physical unit backs a building-block page — writes,
// overwrites, zero elision, GC evacuation, program-fault relocation, staged
// programs, delete, resize — goes through one or both. Both take the owning
// die's lock internally (the rev table is sharded by die) and require the
// unit's space to be write-locked or otherwise exclusive, so no concurrent
// reader can observe the transition. Invalidation is strict: the whole block
// entry is dropped even when the page's bytes are unchanged (a GC move), so a
// cached block can never disagree with the translation state.
func (t *STL) bindUnit(s *Space, blk *BuildingBlock, blockIdx int64, pageIdx int, p nvm.PPA) {
	if t.cache != nil {
		t.cache.invalidateBlock(s.id, blockIdx)
	}
	w := t.lay.Word(p)
	blk.pages[pageIdx] = slotOf(w)
	d := t.dies[t.lay.Die(w)]
	d.mu.Lock()
	t.rev[t.lay.Linear(w)] = revEntry{space: s.id, block: uint32(blockIdx), page: int32(pageIdx), valid: true}
	d.validInBlk[p.Block]++
	d.unbound[p.Block]--
	d.mu.Unlock()
	t.usedPages.Add(1)
}

// invalidateUnit drops the reverse mapping and valid count of the unit at w,
// along with any cached copy of the building block the unit belonged to.
func (t *STL) invalidateUnit(w nvm.Word) {
	d := t.dies[t.lay.Die(w)]
	idx := t.lay.Linear(w)
	d.mu.Lock()
	e := t.rev[idx]
	if !e.valid {
		d.mu.Unlock()
		return
	}
	t.rev[idx].valid = false
	d.validInBlk[t.lay.Block(w)]--
	d.mu.Unlock()
	t.usedPages.Add(-1)
	if t.cache != nil {
		// The exclusive context that invalidates (space write lock, delete,
		// resize) also prevents concurrent readers of this block, so dropping
		// the cache entry after the rev update cannot race a stale re-read.
		t.cache.invalidateBlock(e.space, int64(e.block))
	}
}

// dropUnit releases the unit holding the page of slot, if one does, and
// reports whether one did: the slot reads as unallocated again.
func (t *STL) dropUnit(slot *pageSlot) bool {
	if !slot.allocated() {
		return false
	}
	t.invalidateUnit(slot.word())
	*slot = 0
	return true
}
