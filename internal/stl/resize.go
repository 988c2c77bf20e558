package stl

import "fmt"

// Space restructuring (§5.1): passing an existing identifier to the space
// creation/management API asks the STL to "expand, shrink, or restructure
// the existing space". Growth and shrinkage happen along the outermost
// (highest-order) dimension, which preserves the row-major placement of
// every existing element — and, because the B-tree root corresponds to the
// highest-order dimension (Figure 6), the restructure touches only the root
// node.

// ResizeSpace changes dimension 0 of a space to newDim0.
//
// Growing exposes fresh, zero-reading coordinates. Shrinking invalidates
// every building block whose grid row falls beyond the new bound, releasing
// its units; a later re-grow reads zeros there.
func (t *STL) ResizeSpace(id SpaceID, newDim0 int64) error {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	s, ok := t.spaces[id]
	if !ok {
		return fmt.Errorf("stl: resize of space %d: %w", id, ErrUnknownSpace)
	}
	if newDim0 <= 0 {
		return fmt.Errorf("stl: new dimension must be positive, got %d: %w", newDim0, ErrInvalid)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	newGrid0 := ceilDiv(newDim0, s.bb[0])
	oldGrid0 := s.grid[0]
	if !gridFits(append([]int64{newGrid0}, s.grid[1:]...)) {
		return fmt.Errorf("stl: resizing space %d to %d would take its grid past %d building blocks: %w", id, newDim0, int64(maxGridBlocks), ErrInvalid)
	}
	if newGrid0 < oldGrid0 {
		// Staged (§4.4) pages beyond the new bound are discarded with their
		// blocks.
		stride := prod(s.grid[1:])
		t.dropPendingWhere(func(k pendingKey) bool { return k.space == id && k.block/stride >= newGrid0 })
	}
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
					t.dropBlock(s, s.root.blocks[i])
					s.root.blocks[i] = nil
				}
				s.root.blocks = s.root.blocks[:newGrid0]
			} else {
				for i := newGrid0; i < int64(len(s.root.children)); i++ {
					t.invalidateSubtree(s, s.root.children[i])
					s.root.children[i] = nil
				}
				s.root.children = s.root.children[:newGrid0]
			}
		}
	}
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
	return nil
}

// dropBlock invalidates a block's units and removes it from the space's
// accounting.
func (t *STL) dropBlock(s *Space, blk *BuildingBlock) {
	if blk == nil {
		return
	}
	for j := range blk.pages {
		if t.dropUnit(&blk.pages[j]) {
			s.allocatedPages--
		}
	}
	s.allocatedBBs--
}

// invalidateSubtree drops every block beneath a node.
func (t *STL) invalidateSubtree(s *Space, n *indexNode) {
	if n == nil {
		return
	}
	if n.blocks != nil {
		for i, blk := range n.blocks {
			t.dropBlock(s, blk)
			n.blocks[i] = nil
		}
		return
	}
	for i, c := range n.children {
		t.invalidateSubtree(s, c)
		n.children[i] = nil
	}
}
