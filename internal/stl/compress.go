package stl

import (
	"bytes"
	"cmp"
	"compress/flate"
	"fmt"
	"io"

	"nds/internal/nvm"
	"nds/internal/sim"
)

// Software-managed data compression (§5.3.4): when the system compresses
// data on the host, the mechanism must be part of the software NDS
// framework, which "can use this information to treat each building block
// as a basic unit of compression/decompression". With Config.Compress set,
// every write materialises the affected building blocks, compresses each
// block image, and stores only the compressed pages; reads fetch the
// compressed units and decompress per block. Blocks whose content does not
// compress are stored raw (a per-block flag). Allocation policy and
// even-wearing are unchanged — a compressed block "simply uses fewer access
// units" (§5.3.4).

// compressImage deflates a block image, returning nil if compression does
// not save at least one page.
func (t *STL) compressImage(s *Space, image []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil
	}
	if _, err := w.Write(image); err != nil {
		return nil
	}
	if err := w.Close(); err != nil {
		return nil
	}
	ps := int64(t.geo.PageSize)
	if ceilDiv(int64(buf.Len()), ps) >= ceilDiv(s.bbBytes, ps) {
		return nil
	}
	return buf.Bytes()
}

// blockImage materialises the current logical content of a building block:
// decompressing stored pages when the block is compressed, concatenating raw
// pages otherwise, zeros where nothing was written. The block's pages are one
// device read batch, in page order, read inside the grace set; the returned
// completion time covers it.
func (t *STL) blockImage(at sim.Time, s *Space, blk *BuildingBlock, stats *RequestStats) ([]byte, sim.Time, error) {
	n := len(blk.pages)
	if blk.compressed {
		n = blk.physPages
	}
	words := make([]nvm.Word, 0, n)
	g := t.grace.enter()
	for i := range n {
		if slot := blk.pages[i].load(); slot.allocated() {
			words = append(words, slot.word())
		} else if blk.compressed {
			t.grace.exit(g)
			return nil, at, fmt.Errorf("stl: compressed block missing unit %d", i)
		}
	}
	datas := make([][]byte, len(words))
	done, err := t.dev.ReadWords(at, words, datas)
	t.grace.exit(g)
	if err != nil {
		return nil, at, err
	}
	stats.PagesRead += int64(len(words))
	if blk.compressed {
		comp := make([]byte, 0, blk.compLen)
		for _, data := range datas {
			comp = append(comp, data...)
		}
		comp = comp[:blk.compLen]
		image, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil {
			return nil, done, fmt.Errorf("stl: block decompression failed: %w", err)
		}
		if int64(len(image)) != s.bbBytes {
			return nil, done, fmt.Errorf("stl: decompressed block is %d bytes, want %d", len(image), s.bbBytes)
		}
		return image, done, nil
	}
	image := make([]byte, s.bbBytes)
	ps := int64(t.geo.PageSize)
	for i := range blk.pages {
		if blk.pages[i].load().allocated() {
			off := int64(i) * ps
			copy(image[off:min(off+ps, s.bbBytes)], datas[0])
			datas = datas[1:]
		}
	}
	return image, done, nil
}

// storeBlockImage queues block image on rs's program queue (the block is
// blockIdx of rs.space), compressed when profitable, raw otherwise, on fresh
// units allocated under the §4.2 policy; flush lands the queue, before a
// collection as for any writer. The store is out of place: it carves every
// unit of the new image while the old one stays live, then takes the old
// units, binds the new ones and queues their programs. The old units join the
// queue's dead units, to give their frames back once the image lands. A store
// that fails — the logical budget cannot hold the image, or a page finds no
// unit — releases what it carved and leaves the block's image as it was.
func (t *STL) storeBlockImage(rs *requestScratch, at sim.Time, blockIdx int64, blk *BuildingBlock, image []byte, flush func() error, stats *RequestStats) error {
	s := rs.space
	ps := int64(t.geo.PageSize)
	payload, comp := image, t.compressImage(s, image)
	if comp != nil {
		payload = comp
	}
	pages := int(ceilDiv(int64(len(payload)), ps))
	var held int
	for i := range blk.pages {
		if blk.pages[i].load().allocated() {
			held++
		}
	}
	// Found page by page, a short budget would collect on the way for nothing.
	if err := t.budget(int64(pages - held)); err != nil {
		return err
	}
	// The new image is placed as if the block were empty, as it will be once
	// the old units go.
	var use blockUse
	use.count(nil, t.geo, &t.lay)
	ops := make([]nvm.ProgramOp, pages)
	for i := range ops {
		dst, ready, err := t.allocateUnit(at, s, blk, &use, flush, nil, 0)
		if err != nil {
			for _, op := range ops[:i] {
				t.releaseUnit(op.P)
			}
			return err
		}
		lo := int64(i) * ps
		ops[i] = nvm.ProgramOp{At: ready, P: dst, Data: payload[lo:min(lo+ps, int64(len(payload)))]}
	}

	// An op is bound before it is queued: a faulted program is relocated
	// through its reverse entry (rebindFaulted).
	after := int32(len(rs.ops) + pages)
	for i := range blk.pages {
		if u, ok := t.takeSlot(&blk.pages[i]); ok {
			u.after = after
			rs.dead = append(rs.dead, u)
		}
	}
	blk.compressed, blk.compLen, blk.physPages = comp != nil, int64(len(comp)), pages
	if comp != nil {
		t.compressedBlocks.Add(1)
	}
	for i, op := range ops {
		t.bindUnit(s, blk, blockIdx, i, op.P)
	}
	rs.ops = append(rs.ops, ops...)
	t.progs.Add(int64(pages))
	stats.PagesProgrammed += int64(pages)
	return nil
}

// writeCompressedExtents writes data over exts (rs.exts, in Dst order) of
// rs.space, a block at a time: block-granular read-modify-write with
// per-block compression. The blocks' images queue on the request's program
// queue, which lands before each block read and at the end.
func (t *STL) writeCompressedExtents(rs *requestScratch, at sim.Time, exts []Extent, data []byte) (sim.Time, RequestStats, error) {
	s := rs.space
	stats := RequestStats{Extents: len(exts), Bytes: int64(len(data))}

	// Group extents by block, preserving first-touch order.
	perBlock := make(map[int64][]int)
	var order []int64
	for i, e := range exts {
		if _, ok := perBlock[e.Block]; !ok {
			order = append(order, e.Block)
		}
		perBlock[e.Block] = append(perBlock[e.Block], i)
	}

	gcoord := make([]int64, len(s.grid))
	done := at
	flush := func() error { return t.flushPrograms(&rs.programQueue, &done, &stats) }
	for _, bIdx := range order {
		s.GridCoord(bIdx, gcoord)
		blk, steps := t.block(s, gcoord, true)
		stats.Traversals += steps
		stats.Blocks++

		var covered int64
		for _, ei := range perBlock[bIdx] {
			covered += exts[ei].Len
		}
		var image []byte
		ready := at
		if covered == s.bbBytes {
			image = make([]byte, s.bbBytes)
		} else {
			// The images queued so far land before the block is read.
			var err error
			if err = flush(); err == nil {
				image, ready, err = t.blockImage(at, s, blk, &stats)
			}
			if err != nil {
				return done, stats, err
			}
		}
		for _, ei := range perBlock[bIdx] {
			e := exts[ei]
			copy(image[e.Off:e.Off+e.Len], data[e.Dst:e.Dst+e.Len])
		}
		if err := t.storeBlockImage(rs, ready, bIdx, blk, image, flush, &stats); err != nil {
			return done, stats, cmp.Or(flush(), err) // what is queued lands first
		}
	}
	if err := flush(); err != nil {
		return done, stats, err
	}
	return done, stats, nil
}

// CompressedBlocks reports how many block store operations chose the
// compressed representation.
func (t *STL) CompressedBlocks() int64 { return t.compressedBlocks.Load() }

// ZeroPagesSkipped reports how many all-zero page writes the §8 page-zero
// optimization elided.
func (t *STL) ZeroPagesSkipped() int64 { return t.zeroSkipped.Load() }

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}
