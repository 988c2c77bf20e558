package stl

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Garbage collection (§4.2): when the free units of any channel/bank
// combination fall below the low-water threshold, the STL reclaims
// invalidated units. Unlike a conventional FTL, the reverse-lookup table maps
// each surviving unit straight back to its building block, so mapping updates
// are O(1) per relocated page.
//
// Collection runs inline, on the writer that needs the page (takeUnit): a
// carve from a die at or below the low mark, or one that would open the die's
// last free block, collects that die first, at the writer's simulated time.
// There is no collector of its own, so where collection happens depends only
// on the sequence of writes, and a run driven one write at a time replays
// exactly — the fault replays and golden traces rely on that.
//
// A collector takes no space's lock. Three rules stand in for it:
//
//   - A queued page is never moved before it lands: a block holding a unit
//     carved and not yet programmed (die.unlanded) is no victim.
//   - The owner's rewrite wins: the collector commits a move by
//     compare-and-swap on the page's slot (commitMove), and an overwrite or a
//     release empties the slot (takeSlot); whichever comes second finds the
//     slot changed and gives its own unit up.
//   - No read sees its page disappear: a relocation's source keeps its frame
//     past its erase (nvm.ReadWords), and the erase waits out every read that
//     may have loaded a source's word before the commit (readGrace).
//   - No collector holds a recycled frame: an owner gives back the frame of a
//     unit it replaced only while no collection holds the unit's die, and
//     only if the unit's block has not been emptied for an erase since
//     (discardUnits, die.gen).

// collectDie reclaims space on one die until its free pages exceed target.
// Collection is best-effort: it stops without error when no victim block
// would net free space, and returns at once when another writer holds the
// die's claim. A caller learns what it bought from the die's free pages.
func (t *STL) collectDie(at sim.Time, channel, bank int, target int64) (sim.Time, error) {
	d := t.die(channel, bank)
	d.mu.Lock()
	if d.collecting {
		d.mu.Unlock()
		return at, nil
	}
	d.collecting = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.collecting = false
		d.mu.Unlock()
	}()
	t.gcRuns.Add(1)

	for {
		d.mu.Lock()
		if d.freePages.Load() > target {
			d.mu.Unlock()
			break
		}
		victim := t.pickVictimLocked(d, channel, bank)
		for s := 0; victim < 0 && s < streams; s++ {
			if o := d.open[s]; o.block >= 0 && d.unlanded[o.block].Load() == 0 && d.validInBlk[o.block] < int32(o.next) {
				// Reclaimable pages sit only in an open block: close it.
				d.closeOpen(s, t.geo.PagesPerBlock)
				victim = t.pickVictimLocked(d, channel, bank)
			}
		}
		if victim < 0 {
			d.mu.Unlock()
			break // nothing reclaimable
		}
		// The survivors go to the default stream, and carve reaches every free
		// page of the die from it: the free blocks and both open blocks' tails.
		room, survivors := d.freePages.Load(), int64(d.validInBlk[victim])
		d.mu.Unlock()
		if room < survivors {
			break
		}
		done, progress, err := t.evacuateBlock(at, channel, bank, victim)
		if err != nil {
			return at, err
		}
		if !progress {
			break
		}
		at = sim.Max(at, done)
	}
	return at, nil
}

// pickVictimLocked chooses the GC victim among closed, unretired, not
// fully-valid blocks: greedy most-invalid first, but within a band of
// near-greedy candidates (valid counts within PagesPerBlock/8 of the
// minimum) the block with the fewest lifetime erases wins, so collection
// doubles as intra-die wear leveling. With uniform erase counts the choice
// degenerates to the plain greedy policy (lowest valid count, lowest block
// index). A block with a unit carved and not yet landed (die.unlanded) is
// skipped. -1 if no block is eligible. Caller holds d.mu.
func (t *STL) pickVictimLocked(d *die, channel, bank int) int {
	eligible := func(b int) bool {
		// Free blocks hold nothing to reclaim. Retired blocks are never
		// erased; evacuating one nets nothing, and its valid pages stay
		// readable in place.
		return d.state[b] == blockInUse && !d.isOpen(b) && d.unlanded[b].Load() == 0 &&
			d.validInBlk[b] < int32(t.geo.PagesPerBlock)
	}
	minValid := int32(1 << 30)
	for b := 0; b < t.geo.BlocksPerBank; b++ {
		if eligible(b) && d.validInBlk[b] < minValid {
			minValid = d.validInBlk[b]
		}
	}
	if minValid == 1<<30 {
		return -1
	}
	band := int32(t.geo.PagesPerBlock / 8)
	if band < 1 {
		band = 1
	}
	best, bestErase, bestValid := -1, int64(0), int32(0)
	for b := 0; b < t.geo.BlocksPerBank; b++ {
		if !eligible(b) || d.validInBlk[b] > minValid+band {
			continue
		}
		e := t.dev.EraseCount(nvm.PPA{Channel: channel, Bank: bank, Block: b})
		v := d.validInBlk[b]
		if best < 0 || e < bestErase || (e == bestErase && v < bestValid) {
			best, bestErase, bestValid = b, e, v
		}
	}
	return best
}

// gcScratch is an evacuation's working memory. It belongs to whoever holds
// the die's GC claim (die.collecting), so it is reused from victim to victim
// and a steady-state collection allocates nothing per relocated page.
type gcScratch struct {
	srcs  []nvm.Word // the victim's live units
	moves []revEntry // and the pages they held at planning time
	datas [][]byte
	ops   []nvm.ProgramOp
	gcrd  []int64 // grid-coordinate scratch for the commit
}

// evacuateBlock relocates the victim's valid units within the die (so each
// building block keeps its channel/bank spread), commits each relocation to
// its page's slot (commitMove), and erases the victim once no read can still
// be on its way to a source. The caller holds the die's GC claim.
//
// Data moves through the batched device path (one ReadWords and one
// ProgramPages per victim), and each relocation is a ProgramOp.Move: source
// and destination share the die, so the device stores the source's frame at
// the destination instead of copying its bytes, except under a cipher or when
// fault recovery redirects the op to another die. The error contract is
// commit-what-landed: an abort before the batch is issued (no room) touches
// nothing, and a fault the batch cannot recover from commits the relocations
// that landed and leaves the rest on their sources. The victim then stays
// unerased with fewer valid units, for a later collection to finish.
// Injected program faults relocate to fresh units, and an erase fault or
// worn-out victim is retired in place rather than reported as an error. It
// reports whether it reclaimed (or retired) the victim.
func (t *STL) evacuateBlock(at sim.Time, channel, bank, block int) (sim.Time, bool, error) {
	d := t.die(channel, bank)
	g := &d.gc

	// Snapshot the victim's valid units. The victim is closed, claimed and
	// holds no unlanded unit, so each holds its page and none can join them.
	g.moves, g.srcs = g.moves[:0], g.srcs[:0]
	d.mu.Lock()
	for pg := 0; pg < t.geo.PagesPerBlock; pg++ {
		src := t.lay.Word(nvm.PPA{Channel: channel, Bank: bank, Block: block, Page: pg})
		if e := t.rev[t.lay.Linear(src)]; e.valid {
			g.moves, g.srcs = append(g.moves, e), append(g.srcs, src)
		}
	}
	d.mu.Unlock()

	done := at
	if moves := g.moves; len(moves) > 0 {
		if cap(g.datas) < len(moves) {
			g.datas = make([][]byte, len(moves))
		}
		datas, ops := g.datas[:len(moves)], g.ops[:0]
		defer func() { // the scratch must not pin page images
			clear(datas)
			clear(ops)
		}()
		readDone, err := t.dev.ReadWords(at, g.srcs, datas)
		if err != nil {
			return at, false, err
		}
		// Carve every destination, then land the whole block in one batch.
		// The room check in collectDie ran under the same claim, but
		// concurrent foreground carving may have consumed it; bail without
		// touching translation state if so (the units carved so far are given
		// up).
		d.mu.Lock()
		for i := range moves {
			dst, okCarve := d.carve(channel, bank, t.geo.PagesPerBlock, defaultStream)
			if !okCarve {
				d.mu.Unlock()
				t.releaseOps(ops)
				return at, false, nil
			}
			ops = append(ops, nvm.ProgramOp{At: readDone, P: dst, Data: datas[i], Move: true, From: t.lay.PPA(g.srcs[i])})
		}
		d.mu.Unlock()
		g.ops = ops
		// The destinations are not bound yet, so a relocated op only has its
		// abandoned destination to give up.
		var landed int
		done, landed, _, err = t.landPrograms(ops, func(old, _ nvm.PPA) bool {
			t.releaseUnit(old)
			return true
		})
		// Commit what landed. On success that is every survivor.
		for i := range moves[:landed] {
			t.commitMove(d, g.srcs[i], moves[i], t.lay.Word(ops[i].P))
		}
		if err != nil {
			t.releaseOps(ops[landed:])
			return at, false, err
		}
	}

	t.grace.wait()
	// The victim's pages hold no page any more, erased or not (a source's
	// frame may go with its copy), so no restoreUnit may take one back, and
	// the generation moves on, so no discard of a unit taken from the block
	// before reaches a page programmed there after the erase.
	d.mu.Lock()
	base := nvm.PPA{Channel: channel, Bank: bank, Block: block}.Linear(t.geo)
	clear(t.rev[base : base+int64(t.geo.PagesPerBlock)])
	d.gen[block]++
	d.mu.Unlock()
	eraseDone, err := t.dev.EraseBlock(done, nvm.PPA{Channel: channel, Bank: bank, Block: block})
	if err != nil {
		if errors.Is(err, nvm.ErrEraseFault) || errors.Is(err, nvm.ErrWornOut) {
			// The victim's data is already out; the block just can't rejoin
			// the free pool. Retire it and carry on. Never erased, it would
			// keep the frames of its dead pages for good, so they go back now:
			// every page of it is dead, and the claim keeps any other discard
			// off the die.
			t.retireBlock(channel, bank, block)
			d.mu.Lock()
			ws := d.discards[:0]
			for pg := 0; pg < t.geo.PagesPerBlock; pg++ {
				ws = append(ws, t.lay.Word(nvm.PPA{Channel: channel, Bank: bank, Block: block, Page: pg}))
			}
			t.dev.DiscardPages(ws)
			d.discards = ws
			d.mu.Unlock()
			return eraseDone, true, nil
		}
		return done, false, err
	}
	d.mu.Lock()
	d.freeBlocks = append(d.freeBlocks, block)
	d.state[block] = blockFree
	d.freePages.Add(int64(t.geo.PagesPerBlock))
	d.mu.Unlock()
	t.gcErases.Add(1)
	return eraseDone, true, nil
}

// commitMove points the slot of page e at dst, a landed copy of it on any
// die, if the slot still names src, a unit of die d. dst is bound in the
// reverse table first; then the slot swings by compare-and-swap and src is
// invalidated under d's lock, which an owner's takeSlot of src holds to do
// the same. If the owner got there first, dst is unbound again. The space
// and its building block outlive the collection: the collecting request
// holds the barrier, and a live reverse entry names a block that exists. An
// LBA's pages (space 0) live as long as the LBA.
func (t *STL) commitMove(d *die, src nvm.Word, e revEntry, dst nvm.Word) {
	var slot *pageSlot
	slot, d.gc.gcrd = t.slotAt(e, d.gc.gcrd)
	dd := t.dies[t.lay.Die(dst)]
	dd.mu.Lock()
	t.rev[t.lay.Linear(dst)] = e
	dd.validInBlk[t.lay.Block(dst)]++
	dd.mu.Unlock()
	d.mu.Lock()
	moved := slot.cas(slotOf(src), slotOf(dst))
	if moved {
		t.unbindLocked(d, src)
	}
	d.mu.Unlock()
	if !moved {
		dd.mu.Lock()
		t.unbindLocked(dd, dst)
		dd.mu.Unlock()
		return
	}
	if t.cache != nil {
		t.cache.invalidateBlock(e.space, int64(e.block))
	}
	t.gcMoves.Add(1)
}

// releaseOps gives up the destinations of relocations that will not land.
func (t *STL) releaseOps(ops []nvm.ProgramOp) {
	for i := range ops {
		t.releaseUnit(ops[i].P)
	}
}

// readGrace is the set of requests that may have loaded page words from
// slots and not yet issued their device reads: a read's plan, a prefetch, a
// read-modify-write's old page. A request enters once it holds its space's
// lock and leaves once its reads are issued (what they return stays readable,
// nvm.ReadWords); a collector waits for the members of the moment to leave
// before an erase. Nothing in the set waits on a collector: it carves
// nothing and takes no lock a waiting collector holds. Members count against
// a parity of the epoch, and wait moves the epoch on and drains the old
// parity only, so requests that keep arriving never hold it up.
type readGrace struct {
	mu     sync.Mutex // one waiter at a time
	epoch  atomic.Uint32
	active [2]atomic.Int64
}

// enter joins the set, returning the token exit takes.
func (g *readGrace) enter() uint32 {
	for {
		e := g.epoch.Load()
		g.active[e&1].Add(1)
		if g.epoch.Load() == e {
			return e
		}
		g.active[e&1].Add(-1) // a waiter moved the epoch on: join the new one
	}
}

func (g *readGrace) exit(e uint32) { g.active[e&1].Add(-1) }

// wait returns once every request in the set when it was called has left.
func (g *readGrace) wait() {
	g.mu.Lock()
	old := g.epoch.Add(1) - 1
	for g.active[old&1].Load() != 0 {
		runtime.Gosched()
	}
	g.mu.Unlock()
}
