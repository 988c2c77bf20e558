package stl

import (
	"cmp"
	"slices"

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
// definition), and the program that lands the page hands it to the device.
//
// Buffering applies only to pages without an allocated unit; overwrites of
// programmed pages keep the §4.2 read-modify-write + replacement-unit path.
//
// A space's staged pages are its own (Space.staged) and guarded by its lock
// like the rest of its write state: a writer or a Flush of the space holds
// Space.mu exclusively and stages, fills and programs them; a reader holds it
// shared and overlays their bytes. A staged page leaves the map when its
// program lands, when §8 elision finds it all zeros, or with its space or the
// rows a shrink drops; a write or Flush that fails to program it leaves it
// staged, frame and bytes, for the next.

// cmpKey orders page keys by block, then page.
func cmpKey(a, b pageKey) int {
	return cmp.Or(cmp.Compare(a.block, b.block), cmp.Compare(a.page, b.page))
}

type pendingPage struct {
	buf     []byte // nil on phantom devices
	covered int64  // bytes written so far (extents never overlap per write;
	// re-writing the same region before flush may overcount, which only
	// flushes early — never loses data, since buf holds the latest bytes)
}

// stagedPage returns s's staging entry for key, starting one over a cleared
// frame if the page has none. The caller holds s.mu exclusively.
func (t *STL) stagedPage(s *Space, key pageKey) *pendingPage {
	pp := s.staged[key]
	if pp == nil {
		pp = &pendingPage{}
		if !t.dev.Phantom() {
			pp.buf = t.dev.Frame()
			clear(pp.buf)
		}
		s.staged[key] = pp
	}
	return pp
}

// elideStaged drops staged page key of s if §8 elision applies and its
// payload is all zeros: such a page needs no unit, and its frame goes back.
func (t *STL) elideStaged(s *Space, key pageKey, pp *pendingPage) bool {
	if !t.cfg.ZeroPageElision || pp.buf == nil || !allZero(pp.buf[:s.pageBytes(t.geo, key.page)]) {
		return false
	}
	t.zeroSkipped.Add(1)
	delete(s.staged, key)
	t.dev.Recycle(pp.buf)
	return true
}

// dropStaged discards the staged pages of s whose key matches (the space is
// going away, or shrinking past them) and gives their frames back to the
// arena. The caller holds s.mu exclusively.
func (t *STL) dropStaged(s *Space, match func(pageKey) bool) {
	for k, pp := range s.staged {
		if match(k) {
			delete(s.staged, k)
			t.dev.Recycle(pp.buf)
		}
	}
}

// PendingPages reports how many partially-written pages sit in STL memory.
func (t *STL) PendingPages() int {
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	n := 0
	for _, s := range t.spaces {
		s.mu.RLock()
		n += len(s.staged)
		s.mu.RUnlock()
	}
	return n
}

// Flush programs every staged page, allocating units under the §4.2 policy.
// The returned time covers the slowest program.
//
// It drains the spaces one at a time in ID order, each as a writer of that
// space: under the shared barrier and the space's write lock, so a flush
// holds up only the requests of the space it is draining. It walks the
// space's staged pages in key order and queues each on a request scratch's
// program queue (queueStaged), as a write queues a staged page it fills; the
// queue lands (flushPrograms) on the calling goroutine, at every point where
// allocation is about to collect (so the device sees the issue order a
// page-at-a-time flush would have produced) and when the space is done. The
// device books each channel and die of a batch as one run, so the flush has
// the write path's §4 parallelism without a goroutine of its own, and a
// program fault relocates like any other writer's: same die first, then any
// die.
//
// A page that lands gives its staging frame to the device and leaves the
// map. A page that fails — allocation or program — keeps both, and the flush
// carries on with every page behind it, queueing again the pages a failed
// landing left behind it, before reporting the error of the smallest failing
// (space, block, page). So one bad page (or a transient capacity squeeze)
// doesn't strand every later staged page, and a retry after the condition
// clears programs exactly the pages that are still staged.
func (t *STL) Flush(at sim.Time) (sim.Time, error) {
	done := at
	var err error
	for _, id := range t.SpaceIDs() {
		d, serr := t.flushSpace(at, id)
		done = sim.Max(done, d)
		if err == nil {
			err = serr
		}
	}
	return done, err
}

// flushSpace is Flush of space id, which has nothing staged if it was
// deleted since Flush listed it.
func (t *STL) flushSpace(at sim.Time, id SpaceID) (sim.Time, error) {
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	s := t.spaces[id]
	if s == nil {
		return at, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]pageKey, 0, len(s.staged))
	for k := range s.staged {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmpKey)

	rs := t.getScratch(s)
	defer t.putScratch(rs)
	var (
		done    = at
		stats   RequestStats
		failKey pageKey
		failErr error
		// The pages queued since the last landing, and those behind a page
		// whose landing failed, to queue again.
		queued, retry []pageKey
	)
	fail := func(k pageKey, err error) {
		if failErr == nil || cmpKey(k, failKey) < 0 {
			failKey, failErr = k, err
		}
	}
	// flush records a landing's failure against the page that failed and
	// returns none: allocation carries on as after a landing.
	flush := func() error {
		if err := t.flushPrograms(&rs.programQueue, &done, &stats); err != nil {
			for i, k := range queued {
				if s.staged[k] != nil { // the first page that did not land
					fail(k, err)
					retry = append(retry, queued[i+1:]...)
					break
				}
			}
		}
		queued = queued[:0]
		return nil
	}
	for len(keys) > 0 {
		// The keys are in block order: each block is resolved, and its units
		// counted, once a pass.
		bp := blockPlan{g: -1}
		for _, k := range keys {
			if k.block != bp.g {
				bp.g, bp.blk, bp.use.counted = k.block, t.blockAt(s, k.block, true), false
			}
			if err := t.queueStaged(rs, at, &bp, k.page, s.staged[k], flush); err != nil {
				fail(k, err) // the page stays staged; keep draining the rest
			} else if s.staged[k] != nil {
				queued = append(queued, k)
			}
		}
		flush()
		keys, retry = retry, nil
	}
	return done, failErr
}

// queueStaged queues staged page pp, page page of bp's block, which this
// request filled, on the request's batch like its own pages, with its key
// beside it (rs.staged): the page leaves the staging map, its frame going to
// the device, only when the op lands (flushPrograms). Under §8 elision an
// all-zero page programs nothing and leaves the map now.
func (t *STL) queueStaged(rs *requestScratch, at sim.Time, bp *blockPlan, page int, pp *pendingPage, flush func() error) error {
	s := rs.space
	key := pageKey{bp.g, page}
	if t.elideStaged(s, key, pp) {
		return nil
	}
	if err := cmp.Or(t.carvePlan(&rs.plan), t.budget(1)); err != nil {
		return err
	}
	unit, ready, err := t.allocateUnit(at, s, bp.blk, &bp.use, flush, nil, 0)
	if err != nil {
		return err
	}
	rs.staged = append(rs.staged, stagedOp{op: int32(len(rs.ops)), key: key})
	rs.ops = append(rs.ops, nvm.ProgramOp{At: ready, P: unit, Data: pp.buf, Owned: true})
	t.bindUnit(s, bp.blk, bp.g, page, unit)
	t.progs.Add(1)
	return nil
}
