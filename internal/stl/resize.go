package stl

import (
	"fmt"

	"nds/internal/sim"
)

// Space restructuring (§5.1): passing an existing identifier to the space
// creation/management API asks the STL to "expand, shrink, or restructure
// the existing space". Growth and shrinkage happen along the outermost
// (highest-order) dimension, which preserves the row-major placement of
// every existing element — and, because the B-tree root corresponds to the
// highest-order dimension (Figure 6), the restructure touches only the root
// node.

// ResizeSpace changes dimension 0 of a space to newDim0, issued at at, and
// returns its completion time.
//
// Growing exposes fresh, zero-reading coordinates. Shrinking invalidates
// every building block whose grid row falls beyond the new bound, releasing
// its units, and clears what the blocks of the row astride the bound hold past
// it (clearTail); a later re-grow reads zeros there. Only that clearing
// rewrites pages, so only a shrink whose bound falls inside a programmed page
// completes after at.
//
// A resize makes every view of the space stale. Maintenance operation: see
// CreateSpace.
func (t *STL) ResizeSpace(at sim.Time, id SpaceID, newDim0 int64) (sim.Time, error) {
	t.barrier.Lock()
	defer t.barrier.Unlock()
	s, ok := t.spaces[id]
	if !ok {
		return at, fmt.Errorf("stl: resize of space %d: %w", id, ErrUnknownSpace)
	}
	if newDim0 <= 0 {
		return at, fmt.Errorf("stl: new dimension must be positive, got %d: %w", newDim0, ErrInvalid)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	newGrid0 := ceilDiv(newDim0, s.bb[0])
	oldGrid0 := s.grid[0]
	if !gridFits(append([]int64{newGrid0}, s.grid[1:]...)) {
		return at, fmt.Errorf("stl: resizing space %d to %d would take its grid past %d building blocks: %w", id, newDim0, int64(maxGridBlocks), ErrInvalid)
	}
	if newGrid0 < oldGrid0 {
		// Staged (§4.4) pages beyond the new bound are discarded with their
		// blocks.
		stride := prod(s.grid[1:])
		t.dropStaged(s, func(k pendingKey) bool { return k.block/stride >= newGrid0 })
	}
	done := at
	if r := newDim0 % s.bb[0]; newDim0 < s.dims[0] && r != 0 {
		var err error
		if done, err = t.clearTail(at, s, newGrid0-1, r*(s.bbBytes/s.bb[0])); err != nil {
			return done, err
		}
	}
	var dead []deadUnit
	if s.root != nil {
		switch {
		case newGrid0 > oldGrid0:
			if s.root.blocks != nil { // 1-D space: the root is the leaf
				grown := make([]*BuildingBlock, newGrid0)
				copy(grown, s.root.blocks)
				s.root.blocks = grown
			} else {
				grown := make([]*indexNode, newGrid0)
				copy(grown, s.root.children)
				s.root.children = grown
			}
		case newGrid0 < oldGrid0:
			if s.root.blocks != nil {
				for i := newGrid0; i < int64(len(s.root.blocks)); i++ {
					dead = t.dropBlock(s.root.blocks[i], dead)
					s.root.blocks[i] = nil
				}
				s.root.blocks = s.root.blocks[:newGrid0]
			} else {
				for i := newGrid0; i < int64(len(s.root.children)); i++ {
					dead = t.invalidateSubtree(s.root.children[i], dead)
					s.root.children[i] = nil
				}
				s.root.children = s.root.children[:newGrid0]
			}
		}
	}
	t.discardUnits(dead, 0) // released: there is no successor to wait for
	if t.cache != nil {
		// Grid reindexing: block grid indexes are rank positions in the grid,
		// so resizing dimension 0 leaves every surviving block's index intact
		// (dimension 0 is the outermost rank digit) — but shrink-then-grow
		// must never resurrect a dropped block's bytes, so the whole space is
		// purged rather than tracking which indexes survived.
		t.cache.invalidateSpace(id)
	}
	s.dims[0] = newDim0
	s.grid[0] = newGrid0
	s.gen++
	return done, nil
}

// clearTail zeroes bytes [cut, bbBytes) — the rows past a shrink's bound, as
// dimension 0 is a block's outermost — of every written block of grid row g,
// which the shrink keeps. Pages wholly past cut lose their units and staged
// copies, a staged page astride it is cleared in place, and a programmed one
// (under compression, the block) is rewritten through the write path, issued
// at at. It returns the rewrite's completion.
func (t *STL) clearTail(at sim.Time, s *Space, g, cut int64) (sim.Time, error) {
	ps := int64(t.geo.PageSize)
	stride := prod(s.grid[1:])
	p, first := cut/ps, ceilDiv(cut, ps) // the page astride cut, if p < first; the first page past it
	t.dropStaged(s, func(k pendingKey) bool { return k.block/stride == g && int64(k.page) >= first })
	rs := t.getScratch(s)
	defer t.putScratch(rs)
	var n int64 // bytes of zeros the rewrite writes
	for b := g * stride; b < (g+1)*stride; b++ {
		blk := t.blockAt(s, b, false)
		if blk == nil {
			continue
		}
		end := s.bbBytes
		if !t.cfg.Compress {
			for q := first; q < int64(len(blk.pages)); q++ {
				if u, ok := t.takeSlot(&blk.pages[q]); ok {
					rs.dead = append(rs.dead, u) // discarded by the rewrite's flush
				}
			}
			if p == first {
				continue
			}
			if pp := s.staged[pendingKey{b, int(p)}]; pp != nil && pp.buf != nil {
				clear(pp.buf[cut-p*ps:])
			}
			if !blk.pages[p].load().allocated() {
				continue
			}
			end = min64(first*ps, s.bbBytes)
		}
		rs.exts = append(rs.exts, Extent{Block: b, Off: cut, Len: end - cut, Dst: n})
		n += end - cut
	}
	var zeros []byte
	if !t.dev.Phantom() {
		zeros = make([]byte, n)
	}
	if t.cfg.Compress {
		done, _, err := t.writeCompressedExtents(rs, at, rs.exts, zeros)
		return done, err
	}
	done, _, err := t.writeExtents(rs, at, rs.exts, n, zeros)
	return done, err
}

// dropBlock invalidates a block's units, appending the units it took to dead.
func (t *STL) dropBlock(blk *BuildingBlock, dead []deadUnit) []deadUnit {
	if blk == nil {
		return dead
	}
	for j := range blk.pages {
		if u, ok := t.takeSlot(&blk.pages[j]); ok {
			dead = append(dead, u)
		}
	}
	return dead
}

// invalidateSubtree drops every block beneath a node: the rows a shrink cuts
// off, or a deleted space's whole tree. It appends the units it took to dead.
func (t *STL) invalidateSubtree(n *indexNode, dead []deadUnit) []deadUnit {
	if n == nil {
		return dead
	}
	if n.blocks != nil {
		for i, blk := range n.blocks {
			dead = t.dropBlock(blk, dead)
			n.blocks[i] = nil
		}
		return dead
	}
	for i, c := range n.children {
		dead = t.invalidateSubtree(c, dead)
		n.children[i] = nil
	}
	return dead
}
