package stl

import (
	"errors"
	"fmt"
	"sync"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Write buffering (§4.4): "If the fetched partition is smaller than a
// building block, the STL will try to keep the partition in STL memory and
// write to storage whenever the collected data is sufficient for a basic
// access unit in any building block." Sub-page writes to not-yet-programmed
// pages accumulate in STL memory; the page is programmed once its payload
// region is fully covered (or on Flush). Because an unallocated page reads
// as zeros, the zero-initialized staging buffer is also the correct read
// overlay for bytes not yet covered. The buffer is a frame of the device's
// arena, cleared when the page is first staged (it is partly covered by
// definition), and Flush hands it to the device as the stored page.
//
// Buffering applies only to pages without an allocated unit; overwrites of
// programmed pages keep the §4.2 read-modify-write + replacement-unit path.
//
// The pending map is shared across spaces, so every map operation holds
// pendingMu (writers to different spaces stage concurrently). The buffers a
// map entry points at are still guarded by the owning space's lock: only a
// writer holding the space write lock mutates pp.buf, and readers that
// overlay staged bytes hold the read lock.

type pendingKey struct {
	space SpaceID
	block int64
	page  int
}

type pendingPage struct {
	buf     []byte // nil on phantom devices
	covered int64  // bytes written so far (extents never overlap per write;
	// re-writing the same region before flush may overcount, which only
	// flushes early — never loses data, since buf holds the latest bytes)
}

// pendingFor returns the staging buffer for a page, if any.
func (t *STL) pendingFor(s *Space, block int64, page int) *pendingPage {
	t.pendingMu.Lock()
	defer t.pendingMu.Unlock()
	if t.pending == nil {
		return nil
	}
	return t.pending[pendingKey{s.id, block, page}]
}

// stageWrite buffers n bytes (data may be nil on phantom devices) for an
// unallocated page. Fullness is evaluated separately (takeIfFull) once the
// request has staged all of the page's extents.
func (t *STL) stageWrite(s *Space, block int64, page int, inPageOff int64, data []byte, n int64) {
	key := pendingKey{s.id, block, page}
	t.pendingMu.Lock()
	if t.pending == nil {
		t.pending = make(map[pendingKey]*pendingPage)
	}
	pp := t.pending[key]
	if pp == nil {
		pp = &pendingPage{}
		if !t.dev.Phantom() {
			pp.buf = t.dev.Frame()
			clear(pp.buf)
		}
		t.pending[key] = pp
	}
	t.pendingMu.Unlock()
	// pp.buf is guarded by the space write lock the caller holds, not by
	// pendingMu — see the package comment above.
	if pp.buf != nil && data != nil {
		copy(pp.buf[inPageOff:], data[:n])
	}
	pp.covered += n
}

// takeIfFull removes and returns the page's staging entry when its coverage
// reaches the payload size pb; nil otherwise. Coverage may overcount under
// overlapping writes, which only programs earlier — never-written bytes are
// zeros, exactly what unwritten storage reads as.
func (t *STL) takeIfFull(s *Space, block int64, page int, pb int64) *pendingPage {
	key := pendingKey{s.id, block, page}
	t.pendingMu.Lock()
	defer t.pendingMu.Unlock()
	pp := t.pending[key]
	if pp == nil || pp.covered < pb {
		return nil
	}
	delete(t.pending, key)
	return pp
}

// dropPending discards staged bytes for a page (overwritten wholesale or the
// space is going away).
func (t *STL) dropPending(s *Space, block int64, page int) {
	t.pendingMu.Lock()
	if t.pending != nil {
		delete(t.pending, pendingKey{s.id, block, page})
	}
	t.pendingMu.Unlock()
}

// dropPendingSpace discards all staged pages of a space.
func (t *STL) dropPendingSpace(id SpaceID) {
	t.pendingMu.Lock()
	for k := range t.pending {
		if k.space == id {
			delete(t.pending, k)
		}
	}
	t.pendingMu.Unlock()
}

// PendingPages reports how many partially-written pages sit in STL memory.
func (t *STL) PendingPages() int {
	t.pendingMu.Lock()
	defer t.pendingMu.Unlock()
	return len(t.pending)
}

// flushOp pairs a staged program with the pending-map key it will retire, so
// the drain can delete exactly the keys whose programs landed.
type flushOp struct {
	key pendingKey
	op  nvm.ProgramOp
}

// Flush programs every staged page, allocating units under the §4.2 policy.
// The returned time covers the slowest program.
//
// Group commit: allocation walks the staged pages in deterministic key order,
// but the programs themselves accumulate into per-channel batches that drain
// as concurrent ProgramPages calls — one goroutine per channel, the write
// path's §4 parallelism applied to the flush itself. Channels share no device
// resources, so the per-channel batches complete at the same simulated times
// the old serialized loop produced.
//
// A page that lands gives its staging frame to the device and leaves the
// pending map. A page that fails — allocation or program — keeps both, and
// the flush keeps draining every other page (all channels, all dies) before
// reporting the error of the smallest failing key. So one bad page (or a
// transient capacity squeeze) doesn't strand every later staged page, and a
// retry after the condition clears programs exactly the pages that are still
// pending.
func (t *STL) Flush(at sim.Time) (sim.Time, error) {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()

	// Deterministic order: collect and sort keys.
	t.pendingMu.Lock()
	keys := make([]pendingKey, 0, len(t.pending))
	for k := range t.pending {
		keys = append(keys, k)
	}
	t.pendingMu.Unlock()
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && lessKey(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}

	done := at
	var failKey pendingKey
	var failErr error
	fail := func(k pendingKey, err error) {
		if failErr == nil || lessKey(k, failKey) {
			failKey, failErr = k, err
		}
	}

	// Per-channel program batches, drained concurrently at every GC flush
	// point and at the end. Draining before GC keeps the device issue order a
	// synchronous run would have produced.
	batches := make([][]flushOp, t.geo.Channels)
	drain := func() error {
		type chanResult struct {
			done   sim.Time
			landed int
			err    error
		}
		results := make([]chanResult, len(batches))
		var wg sync.WaitGroup
		for ch := range batches {
			if len(batches[ch]) == 0 {
				continue
			}
			wg.Add(1)
			go func(ch int) {
				defer wg.Done()
				ops := make([]nvm.ProgramOp, len(batches[ch]))
				for i := range batches[ch] {
					ops[i] = batches[ch][i].op
				}
				d, n, err := t.drainFlushChannel(ops)
				results[ch] = chanResult{d, n, err}
			}(ch)
		}
		wg.Wait()
		var firstErr error
		for ch := range batches {
			batch := batches[ch]
			if len(batch) == 0 {
				continue
			}
			r := results[ch]
			done = sim.Max(done, r.done)
			t.pendingMu.Lock()
			for i := 0; i < r.landed; i++ {
				delete(t.pending, batch[i].key)
			}
			t.pendingMu.Unlock()
			if r.err != nil {
				fail(batch[r.landed].key, r.err)
				if firstErr == nil {
					firstErr = r.err
				}
			}
			batches[ch] = nil
		}
		return firstErr
	}
	ac := &allocCtx{flush: drain}

	for _, k := range keys {
		t.pendingMu.Lock()
		pp := t.pending[k]
		t.pendingMu.Unlock()
		if pp == nil {
			continue
		}
		s, ok := t.spaces[k.space]
		if !ok {
			t.pendingMu.Lock()
			delete(t.pending, k)
			t.pendingMu.Unlock()
			continue
		}
		pb := s.pageBytes(t.geo, k.page)
		if t.cfg.ZeroPageElision && pp.buf != nil && allZero(pp.buf[:pb]) {
			t.zeroSkipped.Add(1)
			t.pendingMu.Lock()
			delete(t.pending, k)
			t.pendingMu.Unlock()
			t.dev.Recycle(pp.buf)
			continue
		}
		gcoord := make([]int64, len(s.grid))
		s.GridCoord(k.block, gcoord)
		blk, _ := t.block(s, gcoord, true)
		dst, ready, err := t.allocateUnit(at, s, blk, ac)
		if err != nil {
			fail(k, err)
			continue // page stays pending; keep draining the rest
		}
		slot := &blk.pages[k.page]
		slot.ppa = dst
		slot.allocated = true
		t.bindUnit(s, k.block, k.page, dst)
		t.progs.Add(1)
		batches[dst.Channel] = append(batches[dst.Channel],
			flushOp{k, nvm.ProgramOp{At: ready, P: dst, Data: pp.buf, Owned: true}})
	}
	drain() // per-key errors are recorded inside
	t.noteTime(done)
	return done, failErr
}

// drainFlushChannel programs one channel's staged batch, recovering injected
// program faults within the same channel only: a cross-channel relocation
// would issue device operations on another drain goroutine's resources and
// consume its fault counters, making the flush outcome depend on goroutine
// interleaving. Returns the batch completion time, how many ops (a prefix of
// batch) landed and stayed bound, and the first unrecoverable error; the ops
// beyond the landed prefix have been unbound.
func (t *STL) drainFlushChannel(batch []nvm.ProgramOp) (sim.Time, int, error) {
	var done sim.Time
	ops := batch
	landed := 0
	retries := 0
	for len(ops) > 0 {
		d, err := t.dev.ProgramPages(ops)
		if err == nil {
			return sim.Max(done, d), len(batch), nil
		}
		var pe *nvm.ProgramError
		if !errors.As(err, &pe) {
			// Validation failure: no op landed; drop the batch's translation
			// state.
			t.unbindOps(ops)
			return done, landed, err
		}
		done = sim.Max(done, d)
		if pe.Index > 0 {
			retries = 0 // progress since the last fault
		}
		landed += pe.Index
		ops = ops[pe.Index:] // the stored prefix stays bound
		t.retireBlock(pe.P.Channel, pe.P.Bank, pe.P.Block)
		if retries++; retries > maxProgramRetries {
			t.unbindOps(ops)
			return done, landed, fmt.Errorf("stl: program of %v: %d relocation attempts failed: %w", pe.P, retries, ErrMedia)
		}
		np, ok := t.allocateChannelUnit(pe.P)
		if !ok {
			t.unbindOps(ops)
			return done, landed, fmt.Errorf("stl: no unit on channel %d to relocate faulted program at %v: %w", pe.P.Channel, pe.P, ErrMedia)
		}
		if !t.rebindFaulted(pe.P, np) {
			t.unbindOps(ops)
			return done, landed, fmt.Errorf("stl: faulted program at %v is not bound to any building block: %w", pe.P, ErrMedia)
		}
		t.programRetries.Add(1)
		ops[0].P = np
		ops[0].At = pe.Done
	}
	return done, len(batch), nil
}

// allocateChannelUnit finds a recovery destination within one channel: the
// faulted die first (preserving channel/bank spread), then the channel's
// other banks.
func (t *STL) allocateChannelUnit(old nvm.PPA) (nvm.PPA, bool) {
	if p, ok := t.takeUnitRaw(old.Channel, old.Bank); ok {
		return p, true
	}
	for bk := 0; bk < t.geo.Banks; bk++ {
		if bk == old.Bank {
			continue
		}
		if p, ok := t.takeUnitRaw(old.Channel, bk); ok {
			return p, true
		}
	}
	return nvm.PPA{}, false
}

func lessKey(a, b pendingKey) bool {
	if a.space != b.space {
		return a.space < b.space
	}
	if a.block != b.block {
		return a.block < b.block
	}
	return a.page < b.page
}

// programStaged writes a staged page to a fresh unit. Inline path for pages
// that fill mid-request (takeIfFull); Flush uses the group-commit drain
// instead. The page has left the pending map and this program copies, so its
// staging frame goes back to the arena whatever the outcome.
func (t *STL) programStaged(at sim.Time, s *Space, blockIdx int64, blk *BuildingBlock, page int, pp *pendingPage, ac *allocCtx) (sim.Time, error) {
	defer t.dev.Recycle(pp.buf)
	slot := &blk.pages[page]
	pb := s.pageBytes(t.geo, page)
	if t.cfg.ZeroPageElision && pp.buf != nil && allZero(pp.buf[:pb]) {
		t.zeroSkipped.Add(1)
		return at, nil
	}
	dst, ready, err := t.allocateUnit(at, s, blk, ac)
	if err != nil {
		return at, err
	}
	dst, d, err := t.programWithRecovery(ready, dst, pp.buf, nil)
	if err != nil {
		return at, err
	}
	slot.ppa = dst
	slot.allocated = true
	t.bindUnit(s, blockIdx, page, dst)
	t.progs.Add(1)
	return d, nil
}
