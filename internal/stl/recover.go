package stl

import (
	"errors"
	"fmt"
	"slices"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Media-fault recovery. The device layer (internal/nvm) injects deterministic
// program, erase, and wear-out faults under a FaultPlan; this file is the STL
// side of the contract:
//
//   - A program fault consumes the target page. The STL retires the page's
//     block, relocates the write to a freshly allocated unit, and retries,
//     up to maxProgramRetries times per logical page before giving up with
//     ErrMedia. Data already on the medium is never at risk — only the
//     in-flight write is being placed.
//   - An erase fault (transient or wear-out) retires the block: it leaves
//     freeBlocks, is never picked as a GC victim again, and any valid pages
//     still in it remain readable in place for the rest of their lives.
//   - Retired capacity degrades the device gracefully: retirement first
//     consumes the over-provision reserve, and only once that is exhausted
//     does the logical allocation budget shrink (effectiveMaxPages).
//
// Every program the STL issues lands through landPrograms, the one place that
// rule is written down, and the only caller of the device's program commands.
// It reports how long a prefix of the batch landed and leaves the rest to its
// caller, because what becomes of an op that cannot land is all its two
// callers do differently:
//
//   - every writer's program queue lands through flushPrograms — a partition
//     write's pages and the staged pages that filled (queueStaged), a
//     compressed block's, Flush's, the LBA's — whose units were bound when
//     queued: it unbinds the rest, gives the arena's frames among them back,
//     and leaves a staged page staged with its frame;
//   - the collector (evacuateBlock) binds after landing, so it commits the
//     landed prefix and releases the destinations of the rest, whose pages
//     stay on their sources.
//
// With no fault plan installed none of these paths run, and the only cost on
// the data path is the retired-block bookkeeping checks, which see zero
// retired blocks.

// maxProgramRetries bounds how many fresh units the STL will burn trying to
// land one logical page before declaring the write unrecoverable.
const maxProgramRetries = 8

// ReliabilityReport aggregates the device's injected-fault counters with the
// STL's recovery and retirement state: what failed, what was recovered, and
// what capacity the array has permanently lost.
type ReliabilityReport struct {
	// Device-side fault events (zero when no fault plan is installed).
	ProgramFaults int64 // program attempts that failed
	EraseFaults   int64 // transient erase failures
	WearoutFaults int64 // erases refused because the block is worn out
	ReadRetries   int64 // reads that needed extra ECC sensing passes

	// STL-side recovery work.
	ProgramRetries int64 // successful relocations of faulted programs
	RetiredBlocks  int64 // blocks removed from service
	RetiredPages   int64 // raw pages those blocks represent

	// Capacity state after degradation.
	MaxPages       int64 // original logical allocation budget
	EffectivePages int64 // current budget (MaxPages minus unreserved losses)
	UsedPages      int64 // live units
}

// Reliability reports the device fault counters and STL recovery state.
func (t *STL) Reliability() ReliabilityReport {
	fs := t.dev.FaultStats()
	return ReliabilityReport{
		ProgramFaults:  fs.ProgramFaults,
		EraseFaults:    fs.EraseFaults,
		WearoutFaults:  fs.WearoutFaults,
		ReadRetries:    fs.ReadRetries,
		ProgramRetries: t.programRetries.Load(),
		RetiredBlocks:  t.retiredBlocks.Load(),
		RetiredPages:   t.retiredPages.Load(),
		MaxPages:       t.maxPages,
		EffectivePages: t.effectiveMaxPages(),
		UsedPages:      t.usedPages.Load(),
	}
}

// effectiveMaxPages is the logical allocation budget after retirement:
// retired pages consume the over-provision reserve first, and only the excess
// shrinks the logical budget.
func (t *STL) effectiveMaxPages() int64 {
	reserve := t.geo.TotalPages() - t.maxPages
	if excess := t.retiredPages.Load() - reserve; excess > 0 {
		return t.maxPages - excess
	}
	return t.maxPages
}

// retireBlock permanently removes a block from service: it leaves the die's
// free list or stops being an open block, will never be opened or picked as a
// GC victim again, and is never erased. Valid pages still in it stay
// readable in place. Idempotent.
func (t *STL) retireBlock(channel, bank, block int) {
	d := t.die(channel, bank)
	var drops []cacheKey
	d.mu.Lock()
	was := d.state[block]
	if was == blockRetired {
		d.mu.Unlock()
		return
	}
	d.state[block] = blockRetired
	t.retiredBlocks.Add(1)
	t.retiredPages.Add(int64(t.geo.PagesPerBlock))
	if t.cache != nil {
		// Strict invalidation on retirement: valid pages in the block stay
		// readable in place, but any building block touching retired flash is
		// dropped from DRAM so later reads re-fetch through the device's
		// fault-aware path (and so a relocated page is never served stale).
		// The drops are collected under d.mu (which guards the rev entries)
		// and applied after unlock to respect the die -> cache-shard order.
		for pg := 0; pg < t.geo.PagesPerBlock; pg++ {
			p := nvm.PPA{Channel: channel, Bank: bank, Block: block, Page: pg}
			if e := t.rev[p.Linear(t.geo)]; e.valid {
				drops = append(drops, cacheKey{e.space, int64(e.block)})
			}
		}
	}
	if was == blockFree {
		i := slices.Index(d.freeBlocks, block)
		d.freeBlocks = slices.Delete(d.freeBlocks, i, i+1)
		d.freePages.Add(-int64(t.geo.PagesPerBlock))
	}
	for s := range d.open {
		if d.open[s].block == block {
			d.closeOpen(s, t.geo.PagesPerBlock)
		}
	}
	d.mu.Unlock()
	for _, k := range drops {
		t.cache.invalidateBlock(k.space, k.block)
	}
}

// takeUnitRaw carves the next programmable page out of a die without running
// garbage collection or the caller's flush hook — safe to call from recovery
// code that is itself inside a flush or GC. Returns false when the die has no
// programmable unit.
func (t *STL) takeUnitRaw(channel, bank int) (nvm.PPA, bool) {
	d := t.die(channel, bank)
	d.mu.Lock()
	p, ok := d.carve(channel, bank, t.geo.PagesPerBlock, defaultStream)
	d.mu.Unlock()
	return p, ok
}

// allocateRecoveryUnit finds a destination for data whose program to a unit
// of die (channel, bank) faulted: the same die first (preserving the building
// block's channel/bank spread), then any die with room (data preservation
// beats placement policy).
func (t *STL) allocateRecoveryUnit(channel, bank int) (nvm.PPA, bool) {
	if p, ok := t.takeUnitRaw(channel, bank); ok {
		return p, true
	}
	for ch := 0; ch < t.geo.Channels; ch++ {
		for bk := 0; bk < t.geo.Banks; bk++ {
			if ch == channel && bk == bank {
				continue
			}
			if p, ok := t.takeUnitRaw(ch, bk); ok {
				return p, true
			}
		}
	}
	return nvm.PPA{}, false
}

// landPrograms programs ops, recovering from injected program faults: the
// stored prefix stays, the faulted op's block is retired, the op is redirected
// to a unit from allocateRecoveryUnit and re-aimed at the failed attempt's
// completion, and the rest of the batch goes again — at most
// maxProgramRetries times without an op landing in between. relocated tells
// the caller that the op programming old now programs np, before the retry:
// a caller whose ops are bound passes rebindFaulted, the collector a hook that
// releases old; either gives old up (releaseUnit). If it returns false the
// translation state does not know old, and the batch stops there. Every op
// that lands is released here, which is what lets its block be collected.
//
// It returns the latest completion among the attempts, how many ops — a
// prefix — landed, and how many relocations it made. On an error ops[landed:]
// did not land and never will through this call; ops[landed] still names the
// unit that failed last. A validation error lands nothing and counts no retry.
// Recovery carves with takeUnitRaw (no collection, no flush hook), so it
// cannot re-enter a caller that is itself a flush hook.
func (t *STL) landPrograms(ops []nvm.ProgramOp, relocated func(old, np nvm.PPA) bool) (done sim.Time, landed int, retries int64, err error) {
	since := 0 // relocations since an op last landed
	for landed < len(ops) {
		d, perr := t.dev.ProgramPages(ops[landed:])
		if perr == nil {
			t.releaseOps(ops[landed:])
			return sim.Max(done, d), len(ops), retries, nil
		}
		var pe *nvm.ProgramError
		if !errors.As(perr, &pe) {
			return done, landed, retries, perr
		}
		done = sim.Max(done, d)
		if pe.Index > 0 {
			since = 0
		}
		t.releaseOps(ops[landed : landed+pe.Index])
		landed += pe.Index
		t.retireBlock(pe.P.Channel, pe.P.Bank, pe.P.Block)
		if since++; since > maxProgramRetries {
			return done, landed, retries, fmt.Errorf("stl: program of %v: %d relocation attempts failed: %w", pe.P, since, ErrMedia)
		}
		np, ok := t.allocateRecoveryUnit(pe.P.Channel, pe.P.Bank)
		if !ok {
			return done, landed, retries, fmt.Errorf("stl: no unit available to relocate faulted program at %v: %w", pe.P, ErrMedia)
		}
		if !relocated(pe.P, np) {
			return done, landed, retries, fmt.Errorf("stl: faulted program at %v is not bound to any building block: %w", pe.P, ErrMedia)
		}
		t.programRetries.Add(1)
		retries++
		ops[landed].P, ops[landed].At = np, pe.Done
	}
	return done, landed, retries, nil
}

// rebindFaulted points the slot that owns old (located through the
// reverse-lookup table) at np instead, keeping usedPages and valid counts
// balanced. Used by the batch recovery path, where the unit was bound when
// its program was queued; the caller's space write lock (a writer's or
// Flush's, or the LBA's one request at a time) is what makes the
// read-then-rebind atomic.
// Returns false if old is not bound (translation state is inconsistent —
// callers surface an error), with np released.
func (t *STL) rebindFaulted(old, np nvm.PPA) bool {
	e, slot := t.owner(old)
	if slot == nil {
		t.releaseUnit(np)
		return false
	}
	t.invalidateUnit(t.lay.Word(old), nil)
	t.bind(slot, e, np)
	t.releaseUnit(old)
	return true
}

// unbindOps drops the translation state of queued program ops that will never
// land (an unrecoverable batch failure), restoring the invariant that bound
// units are programmed units, and gives their units up. An op a plan never
// gave a unit (noUnit) holds none.
func (t *STL) unbindOps(ops []nvm.ProgramOp) {
	for i := range ops {
		p := ops[i].P
		if p == noUnit {
			continue
		}
		if e, slot := t.owner(p); e.valid {
			if slot != nil {
				slot.store(0)
			}
			t.invalidateUnit(t.lay.Word(p), nil)
		}
		t.releaseUnit(p)
	}
}

// owner reads the reverse-lookup entry of the unit at p and finds the slot it
// names (slotAt); the slot is nil when the unit is not bound or its owner is
// gone.
func (t *STL) owner(p nvm.PPA) (revEntry, *pageSlot) {
	d := t.die(p.Channel, p.Bank)
	d.mu.Lock()
	e := t.rev[p.Linear(t.geo)]
	d.mu.Unlock()
	if !e.valid {
		return e, nil
	}
	slot, _ := t.slotAt(e, nil)
	return e, slot
}

// blockAt is building block g (a grid index) of s, made if alloc is set and
// nil if not and the block was never written.
func (t *STL) blockAt(s *Space, g int64, alloc bool) *BuildingBlock {
	gcoord := make([]int64, len(s.grid))
	s.GridCoord(g, gcoord)
	blk, _ := t.block(s, gcoord, alloc)
	return blk
}
