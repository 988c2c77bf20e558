package stl

import (
	"fmt"
	"time"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// RequestStats is the one record of a partition operation, handed up the
// stack of Figure 7b/7c by value: each layer fills in the fields it owns on
// the record the layer below returned, and nobody re-types it. system.OpStats
// and nds.Stats are aliases of it; DESIGN.md's "Records" table lists who
// writes what. A failed operation returns the zero record.
type RequestStats struct {
	// Written by the STL: the device work the access performed, which the host
	// and controller models consume to charge software and assembly costs.
	Extents         int   // building-block byte extents the translator produced
	Blocks          int   // distinct building blocks touched
	Traversals      int   // B-tree lookups performed
	PagesRead       int64 // device page reads (including read-modify-write)
	PagesProgrammed int64 // device page programs
	ProgramRetries  int64 // faulted programs relocated and retried (recover.go)
	Bytes           int64 // payload bytes moved for the application

	// Written by the system model (internal/system), which adds the host, link
	// and controller stages around the STL's work.
	Done     sim.Time // completion time, on the device clock (Device.Now)
	RawBytes int64    // bytes that crossed the host interconnect
	Pages    int64    // flash page operations: PagesRead + PagesProgrammed
	Commands int      // I/O commands the host issued

	// Written by package nds: Done minus the issue time of the command's
	// stream, the simulated service time of this operation alone.
	Elapsed time.Duration
}

type pageKey struct {
	block int64
	page  int
}

// readPartitionScalar is the original one-page-at-a-time read path, kept
// behind Config.ScalarPath as the timing reference the batched path is
// differentially tested against.
func (t *STL) readPartitionScalar(at sim.Time, v *View, coord, sub []int64) ([]byte, sim.Time, RequestStats, error) {
	var stats RequestStats
	exts, err := v.Extents(coord, sub)
	if err != nil {
		return nil, at, stats, err
	}
	s := v.space
	_, elems, err := v.PartitionShape(coord, sub)
	if err != nil {
		return nil, at, stats, err
	}
	stats.Extents = len(exts)
	stats.Bytes = elems * int64(s.elemSize)

	var buf []byte
	if !t.dev.Phantom() {
		buf = make([]byte, elems*int64(s.elemSize))
	}
	ps := int64(t.geo.PageSize)
	blocks := make(map[int64]*BuildingBlock)
	type readState struct {
		data []byte
		done sim.Time
		ok   bool
	}
	pages := make(map[pageKey]readState)
	images := make(map[int64][]byte) // each compressed block's image, materialized once a request
	gcoord := make([]int64, len(s.grid))
	done := at
	var hitBytes int64    // payload bytes served from the block cache
	var readyMax sim.Time // latest DRAM-residency time among the hits

	for _, e := range exts {
		blk, ok := blocks[e.Block]
		if !ok {
			s.GridCoord(e.Block, gcoord)
			var steps int
			blk, steps = t.block(s, gcoord, false)
			blocks[e.Block] = blk
			stats.Traversals += steps
			if blk != nil {
				stats.Blocks++ // only blocks that exist count as touched
			}
		}
		if blk == nil {
			continue // untouched block: zeros
		}
		if blk.compressed {
			// §5.3.4: the block is the decompression unit; materialise it
			// once per request and serve extents from the image.
			image, okImg := images[e.Block]
			if !okImg {
				var d sim.Time
				var err error
				image, d, err = t.blockImage(at, s, blk, &stats)
				if err != nil {
					return nil, at, stats, err
				}
				done = sim.Max(done, d)
				images[e.Block] = image
			}
			if buf != nil {
				copy(buf[e.Dst:e.Dst+e.Len], image[e.Off:e.Off+e.Len])
			}
			continue
		}
		for p := e.Off / ps; p <= (e.Off+e.Len-1)/ps; p++ {
			key := pageKey{e.Block, int(p)}
			st, cached := pages[key]
			if !cached {
				slot := blk.pages[p]
				switch {
				case slot.allocated():
					pb := s.pageBytes(t.geo, int(p))
					var cached []byte
					var ready sim.Time
					hit := false
					if t.cache != nil {
						cached, ready, hit = t.cache.lookup(s, e.Block, int(p), pb)
					}
					if hit {
						st = readState{data: cached, ok: true}
						hitBytes += pb
						if ready > readyMax {
							readyMax = ready
						}
						break
					}
					data, d, err := t.dev.ReadPage(at, t.lay.PPA(slot.word()))
					if err != nil {
						return nil, at, stats, err
					}
					if t.cache != nil {
						t.cache.fill(s, e.Block, int(p), data, d, false)
					}
					st = readState{data: data, done: d, ok: true}
					stats.PagesRead++
					done = sim.Max(done, d)
				case t.cfg.WriteBuffering:
					// §4.4 write staging: partially collected pages serve
					// reads straight from STL memory (uncovered bytes are
					// zeros, matching unwritten storage).
					if pp := t.pendingFor(s, e.Block, int(p)); pp != nil && pp.buf != nil {
						st = readState{data: pp.buf, ok: true}
					}
				}
				pages[key] = st
			}
			if buf == nil || !st.ok || st.data == nil {
				continue
			}
			lo := max64(e.Off, p*ps)
			hi := min64(e.Off+e.Len, (p+1)*ps)
			srcLo := lo - p*ps
			dstLo := e.Dst + (lo - e.Off)
			copy(buf[dstLo:dstLo+(hi-lo)], st.data[srcLo:])
		}
	}
	if hitBytes > 0 {
		// Same hit-cost model as the batched path: cached pages stream out of
		// DRAM serially once the latest one is resident.
		start := sim.Max(at, readyMax)
		done = sim.Max(done, start+t.cache.copyCost(hitBytes))
	}
	return buf, done, stats, nil
}

// writePartitionScalar is the original one-page-at-a-time write path, kept
// behind Config.ScalarPath as the timing reference for the batched path.
// The router (WritePartition) handles the compression configuration before
// either implementation runs.
func (t *STL) writePartitionScalar(at sim.Time, v *View, coord, sub []int64, data []byte) (sim.Time, RequestStats, error) {
	var stats RequestStats
	exts, err := v.Extents(coord, sub)
	if err != nil {
		return at, stats, err
	}
	s := v.space
	_, elems, err := v.PartitionShape(coord, sub)
	if err != nil {
		return at, stats, err
	}
	want := elems * int64(s.elemSize)
	if data != nil && int64(len(data)) != want {
		return at, stats, fmt.Errorf("stl: write payload is %d bytes, partition needs %d: %w", len(data), want, ErrInvalid)
	}
	if data == nil && !t.dev.Phantom() {
		return at, stats, fmt.Errorf("stl: nil payload on a data-bearing device: %w", ErrInvalid)
	}
	stats.Extents = len(exts)
	stats.Bytes = want

	ps := int64(t.geo.PageSize)
	gcoord := make([]int64, len(s.grid))
	// ProgramPage copies its payload before returning, so one assembly
	// buffer, zeroed for each page, serves the whole request.
	var pageBuf []byte
	if !t.dev.Phantom() {
		pageBuf = make([]byte, ps)
	}

	// Pass 1: group extents by page, accumulating coverage. Extents of one
	// partition never overlap, so summing lengths is exact.
	type stage struct {
		blk      *BuildingBlock
		blockIdx int64
		page     int
		covered  int64
		extents  []int // indexes into exts
	}
	stages := make(map[pageKey]*stage)
	order := make([]*stage, 0)
	blocks := make(map[int64]*BuildingBlock)
	for i, e := range exts {
		blk, ok := blocks[e.Block]
		if !ok {
			s.GridCoord(e.Block, gcoord)
			var steps int
			blk, steps = t.block(s, gcoord, true)
			blocks[e.Block] = blk
			stats.Traversals += steps
			stats.Blocks++
		}
		for p := e.Off / ps; p <= (e.Off+e.Len-1)/ps; p++ {
			key := pageKey{e.Block, int(p)}
			st := stages[key]
			if st == nil {
				st = &stage{blk: blk, blockIdx: e.Block, page: int(p)}
				stages[key] = st
				order = append(order, st)
			}
			lo := e.Off
			if pLo := p * ps; lo < pLo {
				lo = pLo
			}
			hi := e.Off + e.Len
			if pHi := (p + 1) * ps; hi > pHi {
				hi = pHi
			}
			st.covered += hi - lo
			st.extents = append(st.extents, i)
		}
	}

	// Pass 2: for each staged page, read-modify-write when partially
	// covered, allocate the destination unit, and program. With §4.4 write
	// buffering enabled, sub-unit writes to unprogrammed pages collect in
	// STL memory instead, and program once the unit fills.
	done := at
	ac := &allocCtx{held: s} // scalar path issues programs immediately: no flush hook
	for _, st := range order {
		slot := &st.blk.pages[st.page]
		pb := s.pageBytes(t.geo, st.page)
		if t.cfg.WriteBuffering && !slot.allocated() {
			for _, ei := range st.extents {
				e := exts[ei]
				lo := max64(e.Off, int64(st.page)*ps)
				hi := min64(e.Off+e.Len, int64(st.page+1)*ps)
				var chunk []byte
				if data != nil {
					chunk = data[e.Dst+(lo-e.Off):]
				}
				t.stageWrite(s, st.blockIdx, st.page, lo-int64(st.page)*ps, chunk, hi-lo)
			}
			if pp := t.takeIfFull(s, st.blockIdx, st.page, pb); pp != nil {
				d, err := t.programStaged(at, s, st.blockIdx, st.blk, st.page, pp, ac)
				if err != nil {
					return at, stats, err
				}
				stats.PagesProgrammed++
				done = sim.Max(done, d)
			}
			continue
		}
		ready := at
		clear(pageBuf)
		if slot.allocated() && st.covered < pb {
			old, d, err := t.dev.ReadPage(at, t.lay.PPA(slot.word()))
			if err != nil {
				return at, stats, err
			}
			stats.PagesRead++
			ready = d
			if pageBuf != nil {
				copy(pageBuf, old)
			}
		}
		if pageBuf != nil {
			for _, ei := range st.extents {
				e := exts[ei]
				lo := e.Off
				if pLo := int64(st.page) * ps; lo < pLo {
					lo = pLo
				}
				hi := e.Off + e.Len
				if pHi := int64(st.page+1) * ps; hi > pHi {
					hi = pHi
				}
				src := e.Dst + (lo - e.Off)
				copy(pageBuf[lo-int64(st.page)*ps:], data[src:src+(hi-lo)])
			}
		}
		// §8 page-zero optimization: an all-zero page needs no unit — an
		// unallocated slot already reads as zeros, and an allocated one is
		// simply released.
		if t.cfg.ZeroPageElision && pageBuf != nil && allZero(pageBuf[:pb]) {
			t.dropUnit(slot)
			t.zeroSkipped.Add(1)
			continue
		}
		var dst nvm.PPA
		if slot.allocated() {
			t.invalidateUnit(slot.word())
			dst, ready, err = t.allocateReplacement(ready, slot.word(), ac)
		} else {
			dst, ready, err = t.allocateUnit(ready, s, st.blk, ac)
		}
		if err != nil {
			return at, stats, err
		}
		dst, d, err := t.programWithRecovery(ready, dst, pageBuf, &stats)
		if err != nil {
			return at, stats, err
		}
		t.bindUnit(s, st.blk, st.blockIdx, st.page, dst)
		t.progs.Add(1)
		stats.PagesProgrammed++
		done = sim.Max(done, d)
	}
	return done, stats, nil
}
