package stl

import (
	"cmp"
	"fmt"
	"slices"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// The batched data path. Requests are compiled into a page plan — the set of
// distinct device pages the extent list touches, in first-touch order — and
// issued through the device's batch APIs (ReadWords/ProgramPages) with a
// pooled requestScratch instead of per-request maps and buffers.
//
// Reads are one plan, one emitter, and sinks. planPartitionRead resolves every
// touched page's bytes (flash batch, cache hit, staged write, decompressed
// block image); readPartitionSegments, its only caller, turns them into
// Dst-ordered segments; ReadPartitionSegments (segments.go) wraps the pair in
// the request envelope — QoS admission, the shared barrier and the stale-view
// check, the space read lock, prefetch, the clock — and is the only function
// that executes a partition read. Everything else is a sink handed to it:
// ReadPartitionInto gathers into the caller's buffer (Gather: copy the
// segments, zero only the gaps), ScanPartition and ReducePartition fold the
// segments into a kernel, the network server gathers into its response frame.
// A sink cannot change what the device sees, so timing and statistics are
// those of the plan, whatever consumes it.
//
// A phantom device emits a nil list — and so does a data-bearing device for a
// partition that is all holes, so segs == nil cannot tell the two apart. A
// sink whose answer is bytes must ask the device: ReadPartitionInto returns
// nil rather than a zeroed buffer on dev.Phantom(), and ndsserver keeps a
// phantom nds_read on Exec instead of handleRead's gather-into-frame sink,
// which would send want zeros where the protocol says "no payload".
//
// Writes have the same shape on the device side: landPrograms (recover.go) is
// ReadPartitionSegments' counterpart, the only function that programs a batch.
// Every writer but the collector queues its programs on a programQueue that
// one function lands (flushPrograms); the collector differs only in what it
// does with the ops landPrograms could not land.
//
// Batching delays device operations and never reorders them: a deferred
// program batch — its fresh units carved die by die first (unitPlan) — lands
// at every point where its programs must precede the next device operation — before any read-modify-write page read, before garbage
// collection runs (the flush func the request hands allocation), before a compressed
// block is materialized, and at request end — so the device sees the
// operations in the order a page-at-a-time loop would issue them. Because
// sim.Resource reservations depend only on the order and arguments of Acquire
// calls, that order fixes every completion time. The golden traces
// (DESIGN.md "Correctness: model and goldens") pin those times, written when
// the page-at-a-time reference still existed and equal to it; the model of
// spaces (internal/spec) holds the bytes.

// ReadPartition reads the partition at coord/sub of view v, assembling the
// result in the partition's own row-major layout (§4.4). All page reads are
// issued at time at; the returned completion time is the last page arrival.
// On a phantom device the returned buffer is nil but timing and statistics
// are exact. Unwritten regions read as zeros.
//
// The returned buffer is freshly allocated and owned by the caller.
func (t *STL) ReadPartition(at sim.Time, v *View, coord, sub []int64) ([]byte, sim.Time, RequestStats, error) {
	return t.ReadPartitionInto(at, v, coord, sub, nil)
}

// ReadPartitionInto is ReadPartition assembling into dst when dst has enough
// capacity (allocating a fresh buffer otherwise). The returned slice aliases
// dst in that case: the caller owns it and may reuse it across requests, but
// must not hand it to another request while still reading this one's result.
//
// It is ReadPartitionSegments with Gather as the sink, so dst may hold stale
// bytes: every byte of the result is either copied from a segment or zeroed.
func (t *STL) ReadPartitionInto(at sim.Time, v *View, coord, sub []int64, dst []byte) ([]byte, sim.Time, RequestStats, error) {
	var buf []byte
	done, stats, err := t.ReadPartitionSegments(at, v, coord, sub, func(want int64, segs []Segment) error {
		if t.dev.Phantom() {
			return nil
		}
		if int64(cap(dst)) >= want {
			buf = dst[:want]
		} else {
			buf = make([]byte, want)
		}
		Gather(buf, segs)
		return nil
	})
	return buf, done, stats, err
}

// WritePartition writes data (laid out in the partition's row-major shape)
// to the partition at coord/sub of view v. data may be nil on a phantom
// device. The STL decomposes the partition into building blocks, allocates
// units per the §4.2 policy, read-modify-writes partially covered pages, and
// replaces overwritten units within their channel/bank (§4.2, §4.4). A stale
// view fails with ErrClosedView before anything is translated.
func (t *STL) WritePartition(at sim.Time, v *View, coord, sub []int64, data []byte) (sim.Time, RequestStats, error) {
	var (
		done  sim.Time
		stats RequestStats
		err   error
	)
	s := v.space
	if tk := t.qosAdmit(s.id, qosBytes(s, sub)); tk != nil {
		defer func() { tk.finish(at, done, err == nil) }()
	}
	t.barrier.RLock()
	defer t.barrier.RUnlock()
	if err = v.live(); err != nil {
		return at, stats, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done, stats, err = t.writePartitionBatched(at, v, coord, sub, data)
	return done, stats, err
}

// planPartitionRead compiles the page plan for the partition at coord/sub
// and resolves every touched page's bytes into rs: it records distinct pages
// in first-touch order, serves cached pages from DRAM, serves §4.4-staged
// pages from STL memory, materializes compressed blocks, and issues the
// batched device reads. On return rs.pageData and the block plan's images
// hold the source bytes and done is the completion time (device batch,
// decompressions, and cache DRAM streaming all folded in).
// readPartitionSegments, its only caller, turns the resolved pages into
// segments; every read-shaped request goes through that one pair, so they all
// share timing and statistics.
//
// The plan consumes the extent walk as it goes, walkBatch extents at a time:
// what it keeps of an extent is its pages and page pieces, so the list itself
// is never held whole. The extent count it reports, a timing input, is the
// walk's.
func (t *STL) planPartitionRead(rs *requestScratch, at sim.Time, v *View, coord, sub []int64, stats *RequestStats) (want int64, done sim.Time, err error) {
	s := v.space
	if want, err = rs.startWalk(v, coord, sub); err != nil {
		return 0, at, err
	}
	stats.Bytes = want
	ps := int64(t.geo.PageSize)
	done = at
	// Whether the space's blocks can be resident at all is settled here, once:
	// a space that bypasses the cache plans exactly as with the cache off.
	cached := t.cache != nil && t.cache.cacheable(s)

	// Plan: record every distinct page the extents touch, queueing device
	// reads in first-touch order. Through the cache, an allocated page is only
	// noted here, on its block's chain: the flush asks the cache about each
	// block once and queues what it does not hold. Compressed blocks are
	// device operations of their own (the block is the decompression unit), so
	// the queued batch drains before each materialization to keep the issue
	// order. Only write buffering stages pages, so only then is an unallocated
	// page worth a look in the staging map.
	//
	// A page's bytes are consumed by the segments (refs: a data-bearing device)
	// or by the cache's transaction. Where neither takes them — a phantom device,
	// the cache off — a page keeps only its dedupe mark in bp.pages and its word
	// in the batch: no pageData slot, no planOf entry, and the flush reads into
	// no out.
	refs := !t.dev.Phantom()
	slots := refs || cached
	for more := true; more; {
		var exts []Extent
		exts, more = rs.nextBatch()
		stats.Extents += len(exts)
		for i := range exts {
			e := &exts[i]
			bp := rs.followBlock(e.Block)
			if bp == nil {
				bp = t.resolveBlock(rs, s, e.Block, false, stats)
			}
			blk := bp.blk
			if blk == nil {
				continue // untouched block: zeros
			}
			if blk.compressed {
				if bp.image == 0 {
					if err := t.flushReads(rs, at, &done, stats); err != nil {
						return 0, at, err
					}
					img, d, err := t.blockImage(at, s, blk, stats)
					if err != nil {
						return 0, at, err
					}
					done = sim.Max(done, d)
					rs.pageData = append(rs.pageData, img)
					bp.image = int32(len(rs.pageData))
				}
				rs.refs = append(rs.refs, segRef{dst: e.Dst, lo: e.Off, slot: bp.image - 1, n: int32(e.Len)})
				continue
			}
			// The extent's pieces, page by page: [lo, hi) of the block, the page
			// ending at pageEnd. One division finds the first page; most extents
			// never leave it.
			p, lo, end := e.Off/ps, e.Off, e.Off+e.Len
			for pageEnd := (p + 1) * ps; ; p, pageEnd = p+1, pageEnd+ps {
				hi := min(end, pageEnd)
				idx := bp.pages[p] - 1
				if idx < 0 {
					idx = 0 // a slotless page's mark: bp.pages[p] == 1
					if slots {
						rs.pageData = append(rs.pageData, nil)
						idx = int32(len(rs.pageData) - 1)
					}
					bp.pages[p] = idx + 1
					if slot := blk.pages[p].load(); slot.allocated() {
						if cached {
							rs.wantPage(int32(p))
						} else {
							rs.words = append(rs.words, slot.word())
							if refs {
								rs.planOf = append(rs.planOf, idx)
							}
							stats.PagesRead++
						}
					} else if refs && t.cfg.WriteBuffering {
						// §4.4 write staging: partially collected pages serve
						// reads straight from STL memory.
						if pp := s.staged[pageKey{e.Block, int(p)}]; pp != nil && pp.buf != nil {
							rs.pageData[idx] = pp.buf
						}
					}
				}
				if refs {
					rs.refs = append(rs.refs, segRef{dst: e.Dst + (lo - e.Off), lo: lo - (pageEnd - ps), slot: idx, n: int32(hi - lo)})
				}
				if end <= pageEnd {
					break
				}
				lo = pageEnd
			}
		}
	}
	if err := t.flushReads(rs, at, &done, stats); err != nil {
		return 0, at, err
	}
	if rs.hitBytes > 0 {
		// Hits stream out of cache DRAM serially once the latest filled page
		// is resident; flash misses overlap with them on their own timelines.
		start := sim.Max(at, rs.readyMax)
		done = sim.Max(done, start+t.cache.copyCost(rs.hitBytes))
	}
	return want, done, nil
}

// writePartitionBatched translates the partition and writes it: page by page
// (writeExtents), or a block at a time under compression
// (writeCompressedExtents).
func (t *STL) writePartitionBatched(at sim.Time, v *View, coord, sub []int64, data []byte) (sim.Time, RequestStats, error) {
	rs := t.getScratch(v.space)
	defer t.putScratch(rs)
	exts, want, err := rs.translate(v, coord, sub)
	if err != nil {
		return at, RequestStats{}, err
	}
	if data != nil && int64(len(data)) != want {
		return at, RequestStats{}, fmt.Errorf("stl: write payload is %d bytes, partition needs %d: %w", len(data), want, ErrInvalid)
	}
	if data == nil && !t.dev.Phantom() {
		return at, RequestStats{}, fmt.Errorf("stl: nil payload on a data-bearing device: %w", ErrInvalid)
	}
	if t.cfg.Compress {
		return t.writeCompressedExtents(rs, at, exts, data)
	}
	return t.writeExtents(rs, at, exts, want, data)
}

// writeExtents writes data, want bytes, over exts (rs.exts, in Dst order) of
// rs.space: book first, fill last. Pass 1 groups the extents by destination
// page. Pass 2 settles every page's bookkeeping in stage order — invalidate
// the old unit, carve the replacement (collecting inline where the die asks
// for it) or plan a fresh page's unit (rs.plan, carved and bound die by die
// at the next flush), draw a frame, bind, queue the program and, beside it,
// the old unit's discard (rs.dead, done by the flush that lands it) — and
// moves no payload: a page that is not a read-modify-write is only noted as a
// pending fill. The bytes move in bursts of nothing but copies, every
// fillBurst pages and at the head of flushPrograms, so a queued op's frame is
// undefined until the flush that programs it (DESIGN.md "Frame ownership"). A
// read-modify-write page is the exception and is assembled on the spot: the
// old page it starts from aliases a device frame that the invalidate and
// collection that follow may erase.
func (t *STL) writeExtents(rs *requestScratch, at sim.Time, exts []Extent, want int64, data []byte) (sim.Time, RequestStats, error) {
	stats := RequestStats{Extents: len(exts), Bytes: want}
	s := rs.space
	rs.payload = data

	ps := int64(t.geo.PageSize)

	// Pass 1: group extents by destination page, accumulating coverage.
	// Extents of one partition never overlap, so summing lengths is exact.
	for i := range exts {
		e := &exts[i]
		bp := rs.followBlock(e.Block)
		if bp == nil {
			bp = t.resolveBlock(rs, s, e.Block, true, &stats)
		}
		p, lo, end := e.Off/ps, e.Off, e.Off+e.Len
		for pageEnd := (p + 1) * ps; ; p, pageEnd = p+1, pageEnd+ps {
			si := bp.pages[p] - 1
			if si < 0 {
				si = rs.nextStage()
				st := &rs.stages[si]
				st.plan, st.page = int32(rs.last), int(p)
				bp.pages[p] = si + 1
			}
			st := &rs.stages[si]
			st.covered += min(end, pageEnd) - lo
			st.extents = append(st.extents, int32(i))
			if end <= pageEnd {
				break
			}
			lo = pageEnd
		}
	}

	// Pass 2: read-modify-write partially covered pages, allocate units, and
	// accumulate programs into a batch that drains at the flush points (RMW
	// reads, GC via the flush func allocation calls, request end).
	done := at
	flush := func() error { return t.flushPrograms(&rs.programQueue, &done, &stats) }
	hasData := !t.dev.Phantom()
	// At most an op and a planned unit a page.
	rs.ops = slices.Grow(rs.ops, len(rs.stages))
	rs.plan.reserve(len(rs.stages), len(t.dies))
	now := t.progs.Load() // how recently a block was written is judged once a request
	for si := range rs.stages {
		st := &rs.stages[si]
		bp := &rs.plans[st.plan]
		slot := &bp.blk.pages[st.page]
		pb := s.pageBytes(t.geo, st.page)
		if t.cfg.WriteBuffering && !slot.load().allocated() {
			// §4.4 staging: the page programs once its coverage reaches its
			// payload. Coverage may overcount under overlapping writes, which
			// only programs earlier: never-written bytes are zeros, exactly
			// what unwritten storage reads as.
			key := pageKey{bp.g, st.page}
			pp := t.stagedPage(s, key)
			for _, ei := range st.extents {
				off, src, n := pagePiece(&exts[ei], st.page, ps)
				if pp.buf != nil && data != nil {
					copy(pp.buf[off:], data[src:src+n])
				}
				pp.covered += n
			}
			if pp.covered >= pb {
				if err := t.queueStaged(rs, at, bp, st.page, pp, flush); err != nil {
					return at, stats, cmp.Or(flush(), err) // what is queued lands first
				}
				stats.PagesProgrammed++
			}
			continue
		}
		ready := at
		// A read-modify-write page starts from the old page (a whole frame) and
		// is assembled now, in the frame the device will keep; frames arrive
		// dirty, and the old page covers what the extents do not.
		var frame []byte
		rmw := slot.load().allocated() && st.covered < pb
		if rmw {
			if err := flush(); err != nil {
				return at, stats, err
			}
			// A collector may move the page: its word is loaded in the grace set.
			var old [1][]byte
			g := t.grace.enter()
			d, err := t.dev.ReadWords(at, []nvm.Word{slot.load().word()}, old[:])
			t.grace.exit(g)
			if err != nil {
				return at, stats, err
			}
			stats.PagesRead++
			ready = d
			if hasData {
				frame = t.dev.Frame()
				copy(frame, old[0])
				rs.copyPayload(frame, st, ps, false)
			}
		}
		// §8 page-zero optimization: an all-zero page needs no unit — an
		// unallocated slot already reads as zeros, and an allocated one is
		// simply released. What the extents do not cover of any other page is
		// zeros by construction, so its payload alone decides, and an elided
		// page draws no frame.
		if t.cfg.ZeroPageElision && hasData &&
			(rmw && allZero(frame[:pb]) || !rmw && rs.payloadZero(st, ps)) {
			if old, ok := t.takeSlot(slot); ok {
				old.after = int32(len(rs.ops))
				rs.dead = append(rs.dead, old)
			}
			t.zeroSkipped.Add(1)
			t.dev.Recycle(frame)
			continue
		}
		var (
			unit nvm.PPA
			err  error
		)
		old, replacing := t.takeSlot(slot)
		if replacing {
			if err = t.carvePlan(&rs.plan); err == nil {
				unit, ready, err = t.allocateReplacement(ready, old.w, t.overwriteStream(bp.blk, now), flush)
			}
			if err != nil {
				t.restoreUnit(revEntry{space: s.id, block: uint32(bp.g), page: int32(st.page)}, slot, old.w)
			}
		} else if err = t.budget(rs.plan.pending() + 1); err == nil {
			unit, ready, err = t.allocateUnit(ready, s, bp.blk, &bp.use, flush, &rs.plan, uint32(si))
		}
		if err != nil {
			t.dev.Recycle(frame) // a read-modify-write page's; no other page has drawn one yet
			return at, stats, cmp.Or(flush(), err)
		}
		// Any other page's frame is drawn only now that the page has a unit, and
		// holds nothing until a fill.
		if hasData && !rmw {
			frame = t.dev.Frame()
			rs.fills = append(rs.fills, pendingFill{op: int32(len(rs.ops)), stage: int32(si)})
		}
		rs.ops = append(rs.ops, nvm.ProgramOp{At: ready, P: unit, Data: frame, Owned: true})
		if replacing {
			old.after = int32(len(rs.ops))
			rs.dead = append(rs.dead, old)
		}
		if len(rs.fills) == fillBurst {
			rs.fillPending(ps)
		}
		if unit != noUnit { // a planned unit is bound when the plan is carved
			t.bindUnit(s, bp.blk, bp.g, st.page, unit)
		}
		t.progs.Add(1)
		stats.PagesProgrammed++
	}
	end := t.progs.Load()
	for i := range rs.plans {
		rs.plans[i].blk.lastWrite = end
	}
	if err := flush(); err != nil {
		return at, stats, err
	}
	return done, stats, nil
}
