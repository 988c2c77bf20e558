package stl

import (
	"errors"
	"fmt"
	"time"

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
// Evacuation is three-phase so it can run concurrently with readers and
// writers of unrelated spaces: (1) snapshot the victim's valid units from the
// reverse-lookup table under the die lock; (2) try-lock the owning spaces in
// ascending-ID order and re-validate the snapshot — if any space lock cannot
// be had (another writer owns it), the victim is skipped for the next one, so
// a collector never blocks a lock holder and the space -> die order stays
// deadlock-free; (3) under those locks, read the sources, program copies into
// freshly carved units, rebind, and erase the victim.
//
// Taking the space locks *before* reading the sources is load-bearing: the
// batched write path binds a unit when its program is queued and only drains
// the queue while still holding the space's write lock, so a unit observed
// valid while we hold that lock is guaranteed to be programmed. Reading
// first and locking later could capture a pre-program (all-zero) image of
// such a unit and then commit it after the writer unlocks, losing the write.
// An abort before the relocation batch is issued leaves the translation state
// untouched; a fault inside it commits the relocations that landed and leaves
// the rest on their sources (see evacuateBlock).

// gcOutcome classifies one collection attempt.
type gcOutcome int

const (
	gcProgress gcOutcome = iota // reclaimed (or retired) at least one block
	gcNothing                   // nothing reclaimable on this die
	gcBusy                      // a writer holds one of the victim's spaces
)

// gcCommitTries bounds how many times an evacuation retries the commit-phase
// space try-locks before abandoning the pass.
const gcCommitTries = 100

// collectDie reclaims space on one die until its free pages exceed target.
// Collection is best-effort: it stops without error when no victim block
// would net free space, and returns at once when another writer holds the
// die's claim. A caller learns what it bought from the die's free pages.
func (t *STL) collectDie(at sim.Time, channel, bank int, ac *allocCtx, target int64) (sim.Time, error) {
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

	var busy []int // victims skipped because their owners' locks were unavailable
	for {
		d.mu.Lock()
		if d.freePages.Load() > target {
			d.mu.Unlock()
			break
		}
		victim := t.pickVictimLocked(d, channel, bank, busy)
		for s := 0; victim < 0 && s < streams; s++ {
			if o := d.open[s]; o.block >= 0 && d.unbound[o.block] == 0 && d.validInBlk[o.block] < int32(o.next) {
				// Reclaimable pages sit only in an open block: close it.
				d.closeOpen(s, t.geo.PagesPerBlock)
				victim = t.pickVictimLocked(d, channel, bank, busy)
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
		done, res, err := t.evacuateBlock(at, channel, bank, victim, ac)
		if err != nil {
			return at, err
		}
		if res == gcBusy {
			// A writer owns one of the victim's spaces. Move on to the
			// next-best victim instead of spinning on this one: a block whose
			// units belong to idle spaces (or to no space at all) can still
			// make progress while the busy one stays locked.
			busy = append(busy, victim)
			continue
		}
		if res != gcProgress {
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
// index). Blocks listed in exclude (victims already found busy this pass) are
// skipped, and so is a block with a unit carved and not yet bound (die.unbound).
// -1 if no block is eligible. Caller holds d.mu.
func (t *STL) pickVictimLocked(d *die, channel, bank int, exclude []int) int {
	eligible := func(b int) bool {
		// Free blocks hold nothing to reclaim. Retired blocks are never
		// erased; evacuating one nets nothing, and its valid pages stay
		// readable in place.
		if d.state[b] != blockInUse || d.isOpen(b) {
			return false
		}
		for _, x := range exclude {
			if b == x {
				return false
			}
		}
		return d.unbound[b] == 0 && d.validInBlk[b] < int32(t.geo.PagesPerBlock)
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

// plannedMove is one relocation captured from the reverse-lookup table: the
// source unit and the translation identity it had at planning time. The
// building block itself is resolved at commit, under the owning space's
// write lock.
type plannedMove struct {
	src   nvm.Word
	space SpaceID
	block uint32
	page  int32
}

// gcScratch is an evacuation's working memory. It belongs to whoever holds
// the die's GC claim (die.collecting), so it is reused from victim to victim
// and a steady-state collection allocates nothing per relocated page.
type gcScratch struct {
	moves []plannedMove
	held  []*Space
	srcs  []nvm.Word
	datas [][]byte
	ops   []nvm.ProgramOp
	gcrd  []int64 // grid-coordinate scratch for the rebind
}

// evacuateBlock relocates the victim's valid units within the die (so each
// building block keeps its channel/bank spread), updates their building
// blocks through the reverse-lookup table, and erases the victim. The caller
// holds the die's GC claim.
//
// Data moves through the batched device path (one ReadWords and one
// ProgramPages per victim), and each relocation is a ProgramOp.Move: source
// and destination share the die, so the device re-homes the source's frame
// instead of copying its bytes, except under a cipher or when fault recovery
// redirects the op to another die. A moved-out source no longer holds its
// data, so the error contract is commit-what-landed: an abort before the
// batch is issued (busy owners, no room) touches nothing, and a fault the
// batch cannot recover from rebinds the relocations that landed to their
// destinations and leaves only the rest bound to their sources — every bound
// unit is a programmed unit that holds its page either way. The victim then
// stays unerased with fewer valid units, for a later collection to finish.
// Injected program faults relocate to fresh units, and an erase fault or
// worn-out victim is retired in place rather than reported as an error.
func (t *STL) evacuateBlock(at sim.Time, channel, bank, block int, ac *allocCtx) (sim.Time, gcOutcome, error) {
	d := t.die(channel, bank)
	g := &d.gc

	// Phase 1: snapshot the victim's valid units under the die lock. New
	// units cannot appear in the victim afterwards (programs only land in the
	// open blocks, and the victim is closed and claimed), so the snapshot can
	// only shrink — stale entries are dropped by the re-validation below.
	g.moves = g.moves[:0]
	d.mu.Lock()
	for pg := 0; pg < t.geo.PagesPerBlock; pg++ {
		src := t.lay.Word(nvm.PPA{Channel: channel, Bank: bank, Block: block, Page: pg})
		if e := t.rev[t.lay.Linear(src)]; e.valid {
			g.moves = append(g.moves, plannedMove{src: src, space: e.space, block: e.block, page: e.page})
		}
	}
	d.mu.Unlock()

	// Phase 2: take the owning spaces' write locks in ascending-ID order
	// (try-only, so a GC actor never blocks a lock holder), then re-validate
	// the snapshot. Holding the locks guarantees every surviving source is
	// programmed (see the package comment) and that nothing can invalidate it
	// until the rebind below — every invalidation path holds the space's
	// write lock or runs in a maintenance context that excludes GC.
	held, ok := t.lockSpacesForCommit(g.moves, ac, g.held[:0])
	if !ok {
		return at, gcBusy, nil
	}
	g.held = held
	defer func() {
		for i, s := range held {
			s.mu.Unlock()
			held[i] = nil
		}
	}()
	moves := g.moves[:0]
	d.mu.Lock()
	for _, m := range g.moves {
		e := t.rev[t.lay.Linear(m.src)]
		if e.valid && e.space == m.space && e.block == m.block && e.page == m.page {
			moves = append(moves, m)
		}
	}
	d.mu.Unlock()

	done := at
	if len(moves) > 0 {
		g.srcs = g.srcs[:0]
		for i := range moves {
			g.srcs = append(g.srcs, moves[i].src)
		}
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
			return at, gcNothing, err
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
				return at, gcNothing, nil
			}
			ops = append(ops, nvm.ProgramOp{At: readDone, P: dst, Data: datas[i], Move: true, From: t.lay.PPA(moves[i].src)})
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

		// Phase 3: rebind what landed. On success that is every survivor.
		for i := range moves[:landed] {
			m := &moves[i]
			s, okS := t.spaces[m.space]
			if !okS {
				return done, gcNothing, fmt.Errorf("stl: GC found unit of unknown space %d", m.space)
			}
			g.gcrd = growInt64(g.gcrd, len(s.grid))
			s.GridCoord(int64(m.block), g.gcrd)
			blk, _ := t.block(s, g.gcrd, false)
			if blk == nil {
				return done, gcNothing, fmt.Errorf("stl: GC reverse entry names missing block %d of space %d", m.block, s.id)
			}
			t.invalidateUnit(m.src)
			t.bindUnit(s, blk, int64(m.block), int(m.page), ops[i].P)
			t.gcMoves.Add(1)
		}
		if err != nil {
			t.releaseOps(ops[landed:])
			return at, gcNothing, err
		}
	}

	eraseDone, err := t.dev.EraseBlock(done, nvm.PPA{Channel: channel, Bank: bank, Block: block})
	if err != nil {
		if errors.Is(err, nvm.ErrEraseFault) || errors.Is(err, nvm.ErrWornOut) {
			// The victim's data is already out; the block just can't rejoin
			// the free pool. Retire it and carry on.
			t.retireBlock(channel, bank, block)
			return eraseDone, gcProgress, nil
		}
		return done, gcNothing, err
	}
	d.mu.Lock()
	d.freeBlocks = append(d.freeBlocks, block)
	d.state[block] = blockFree
	d.freePages.Add(int64(t.geo.PagesPerBlock))
	d.mu.Unlock()
	t.gcErases.Add(1)
	return eraseDone, gcProgress, nil
}

// lockSpacesForCommit write-locks every distinct space in moves, in
// ascending-ID order, treating ac.held (the space the calling request
// already owns) as pre-acquired. Locks are taken with TryLock plus a bounded
// yield-retry so a GC actor never blocks a writer; on exhaustion every lock
// taken here is released and false is returned. The spaces this call locked
// (never ac.held) are appended to held, which is returned.
func (t *STL) lockSpacesForCommit(moves []plannedMove, ac *allocCtx, held []*Space) ([]*Space, bool) {
	ids := make([]SpaceID, 0, 4)
	for i := range moves {
		id := moves[i].space
		dup := false
		for _, have := range ids {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		if ac != nil && ac.held != nil && ac.held.id == id {
			continue // the calling request already owns this one
		}
		s := t.spaces[id] // the collecting request holds the barrier: no space vanishes
		got := false
		for try := 0; try < gcCommitTries; try++ {
			if s.mu.TryLock() {
				got = true
				break
			}
			time.Sleep(2 * time.Microsecond)
		}
		if !got {
			for _, h := range held {
				h.mu.Unlock()
			}
			return held[:0], false
		}
		held = append(held, s)
	}
	return held, true
}

// releaseOps gives up the destinations of relocations that will not land.
func (t *STL) releaseOps(ops []nvm.ProgramOp) {
	for i := range ops {
		t.releaseUnit(ops[i].P)
	}
}
