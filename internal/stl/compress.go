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
			copy(image[off:min64(off+ps, s.bbBytes)], datas[0])
			datas = datas[1:]
		}
	}
	return image, done, nil
}

// dropAllUnits invalidates every unit of a block and clears its compression
// state, ready for a fresh rewrite. It returns the units it took.
func (t *STL) dropAllUnits(blk *BuildingBlock) []deadUnit {
	var dead []deadUnit
	for i := range blk.pages {
		if u, ok := t.takeSlot(&blk.pages[i]); ok {
			dead = append(dead, u)
		}
	}
	blk.compressed = false
	blk.compLen = 0
	blk.physPages = 0
	return dead
}

// storeBlockImage writes a block image, compressed when profitable, raw
// otherwise, allocating fresh units under the §4.2 policy; its programs queue
// and land like the write path's (before a collection and at the end). The
// old units give their frames back once the whole new image has landed.
func (t *STL) storeBlockImage(at sim.Time, s *Space, blockIdx int64, blk *BuildingBlock, image []byte, stats *RequestStats) (sim.Time, error) {
	dead := t.dropAllUnits(blk)
	ps := int64(t.geo.PageSize)
	payload := image
	if comp := t.compressImage(s, image); comp != nil {
		payload = comp
		blk.compressed = true
		blk.compLen = int64(len(comp))
		t.compressedBlocks.Add(1)
	}
	pages := int(ceilDiv(int64(len(payload)), ps))
	blk.physPages = pages
	done := at
	var (
		ops []nvm.ProgramOp
		use blockUse
	)
	land := func() error {
		d, landed, retries, err := t.landPrograms(ops, t.rebindFaulted)
		done = sim.Max(done, d)
		stats.ProgramRetries += retries
		t.unbindOps(ops[landed:])
		ops = ops[:0]
		return err
	}
	for i := 0; i < pages; i++ {
		dst, ready, err := t.allocateUnit(at, s, blk, &use, land, nil, 0)
		if err != nil {
			ferr := land() // what is queued lands first
			return done, cmp.Or(ferr, err)
		}
		lo := int64(i) * ps
		ops = append(ops, nvm.ProgramOp{At: ready, P: dst, Data: payload[lo:min64(lo+ps, int64(len(payload)))]})
		t.bindUnit(s, blk, blockIdx, i, dst)
		t.progs.Add(1)
		stats.PagesProgrammed++
	}
	if err := land(); err != nil {
		return done, err
	}
	t.discardUnits(dead, 0)
	return done, nil
}

// writeCompressed is the Config.Compress write path: block-granular
// read-modify-write with per-block compression.
func (t *STL) writeCompressed(at sim.Time, v *View, coord, sub []int64, data []byte) (sim.Time, RequestStats, error) {
	exts, err := v.Extents(coord, sub)
	if err != nil {
		return at, RequestStats{}, err
	}
	// The extents tile the partition in Dst order.
	if last := exts[len(exts)-1]; int64(len(data)) != last.Dst+last.Len {
		return at, RequestStats{}, fmt.Errorf("stl: write payload is %d bytes, partition needs %d: %w", len(data), last.Dst+last.Len, ErrInvalid)
	}
	return t.writeCompressedExtents(at, v.space, exts, data)
}

// writeCompressedExtents writes data over exts of s, a block at a time.
func (t *STL) writeCompressedExtents(at sim.Time, s *Space, exts []Extent, data []byte) (sim.Time, RequestStats, error) {
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
	for _, bIdx := range order {
		s.GridCoord(bIdx, gcoord)
		blk, steps := t.block(s, gcoord, true)
		stats.Traversals += steps
		stats.Blocks++

		fullyCovered := func() bool {
			var covered int64
			for _, ei := range perBlock[bIdx] {
				covered += exts[ei].Len
			}
			return covered == s.bbBytes
		}()

		var (
			image []byte
			err   error
		)
		ready := at
		if fullyCovered {
			image = make([]byte, s.bbBytes)
			// Old units are dropped wholesale in storeBlockImage.
		} else {
			image, ready, err = t.blockImage(at, s, blk, &stats)
			if err != nil {
				return done, stats, err
			}
		}
		for _, ei := range perBlock[bIdx] {
			e := exts[ei]
			copy(image[e.Off:e.Off+e.Len], data[e.Dst:e.Dst+e.Len])
		}
		d, err := t.storeBlockImage(ready, s, bIdx, blk, image, &stats)
		if err != nil {
			return done, stats, err
		}
		done = sim.Max(done, d)
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
