package stl

import (
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

// dropPendingWhere discards the staged pages whose key matches (the space is
// going away, or shrinking past them) and gives their frames back to the
// arena.
func (t *STL) dropPendingWhere(match func(pendingKey) bool) {
	t.pendingMu.Lock()
	for k, pp := range t.pending {
		if match(k) {
			delete(t.pending, k)
			t.dev.Recycle(pp.buf)
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

// Flush programs every staged page, allocating units under the §4.2 policy.
// The returned time covers the slowest program.
//
// Allocation walks the staged pages in key order and queues one program per
// page; the queue lands as one batch on the calling goroutine, at every point
// where allocation is about to collect (so the device sees the issue order a
// page-at-a-time flush would have produced) and at the end. The device books
// each channel and die of a batch as one run, so the flush has the write
// path's §4 parallelism without a goroutine of its own, and a program fault
// relocates like any other writer's: same die first, then any die.
//
// A page that lands gives its staging frame to the device and leaves the
// pending map. A page that fails — allocation or program — keeps both, and
// the flush carries on with every page behind it before reporting the error
// of the smallest failing key. So one bad page (or a transient capacity
// squeeze) doesn't strand every later staged page, and a retry after the
// condition clears programs exactly the pages that are still pending.
func (t *STL) Flush(at sim.Time) (sim.Time, error) {
	t.barrier.Lock()
	defer t.barrier.Unlock()

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

	// The queued programs and, beside each, the pending key it retires.
	var ops []nvm.ProgramOp
	var opKeys []pendingKey
	drain := func() error {
		var firstErr error
		for len(ops) > 0 {
			d, landed, _, err := t.landPrograms(ops, t.rebindFaulted)
			done = sim.Max(done, d)
			t.pendingMu.Lock()
			for _, k := range opKeys[:landed] {
				delete(t.pending, k)
			}
			t.pendingMu.Unlock()
			if err == nil {
				break
			}
			// The op that could not land stays pending with its frame; the ops
			// behind it go again.
			fail(opKeys[landed], err)
			if firstErr == nil {
				firstErr = err
			}
			t.unbindOps(ops[landed : landed+1])
			ops, opKeys = ops[landed+1:], opKeys[landed+1:]
		}
		ops, opKeys = nil, nil
		return firstErr
	}

	for _, k := range keys {
		t.pendingMu.Lock()
		pp := t.pending[k]
		t.pendingMu.Unlock()
		if pp == nil {
			continue
		}
		// DeleteSpace drops a space's staged pages, and only a live view
		// stages one, so the space is there.
		s := t.spaces[k.space]
		pb := s.pageBytes(t.geo, k.page)
		if t.cfg.ZeroPageElision && pp.buf != nil && allZero(pp.buf[:pb]) {
			t.zeroSkipped.Add(1)
			t.pendingMu.Lock()
			delete(t.pending, k)
			t.pendingMu.Unlock()
			t.dev.Recycle(pp.buf)
			continue
		}
		blk := t.blockAt(s, k.block, true)
		dst, ready, err := t.allocateUnit(at, s, blk, drain)
		if err != nil {
			fail(k, err)
			continue // page stays pending; keep draining the rest
		}
		t.bindUnit(s, blk, k.block, k.page, dst)
		t.progs.Add(1)
		ops = append(ops, nvm.ProgramOp{At: ready, P: dst, Data: pp.buf, Owned: true})
		opKeys = append(opKeys, k)
	}
	drain() // per-key errors are recorded inside
	t.noteTime(done)
	return done, failErr
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

// queueStaged queues page st, staged and full since this request
// (takeIfFull), on the request's batch like its own pages: the staging frame
// goes to the device Owned, or back to the arena if the op never lands. Under
// §8 elision an all-zero page programs nothing and its frame goes back now.
func (t *STL) queueStaged(rs *requestScratch, at sim.Time, st *writeStage, pp *pendingPage, flush func() error) error {
	s := rs.space
	if t.cfg.ZeroPageElision && pp.buf != nil && allZero(pp.buf[:s.pageBytes(t.geo, st.page)]) {
		t.zeroSkipped.Add(1)
		t.dev.Recycle(pp.buf)
		return nil
	}
	unit, ready, err := t.allocateUnit(at, s, st.blk, flush)
	if err != nil {
		t.dev.Recycle(pp.buf)
		return err
	}
	rs.ops = append(rs.ops, nvm.ProgramOp{At: ready, P: unit, Data: pp.buf, Owned: true})
	t.bindUnit(s, st.blk, st.blockIdx, st.page, unit)
	t.progs.Add(1)
	return nil
}
