package stl

import (
	"sync/atomic"

	"nds/internal/nvm"
)

// The STL maintains an N-level B-tree per N-dimensional space (§4.2). The
// root level corresponds to the highest-order dimension (d_n), each level
// below to the next lower dimension, and leaf entries point to the list of
// physical access units of one building block, sorted by their position
// within the block. Node degree at the level for dimension i is ceil(d_i /
// bb_i). Nodes are allocated lazily along the traversal path of the first
// request that touches them.

// pageSlot records one basic access unit of a building block: 1 + the page
// word of the unit that holds it, 0 while none does. Four bytes, the physical
// page number §7.3 charges per access unit (IndexFootprint). A collector
// rewrites slots under no space's lock, so they are accessed atomically.
type pageSlot uint32

// slotOf is the slot of a page held by the unit at w.
func slotOf(w nvm.Word) pageSlot { return pageSlot(w) + 1 }

func (s pageSlot) allocated() bool { return s != 0 }

// word is the unit's page word; the slot must be allocated.
func (s pageSlot) word() nvm.Word { return nvm.Word(s - 1) }

func (s *pageSlot) load() pageSlot   { return pageSlot(atomic.LoadUint32((*uint32)(s))) }
func (s *pageSlot) store(v pageSlot) { atomic.StoreUint32((*uint32)(s), uint32(v)) }
func (s *pageSlot) cas(old, new pageSlot) bool {
	return atomic.CompareAndSwapUint32((*uint32)(s), uint32(old), uint32(new))
}

// BuildingBlock is a leaf entry: the page list plus the per-block usage
// statistics the allocation policy of §4.2 consults.
type BuildingBlock struct {
	pages    []pageSlot
	chanUse  []uint16 // units allocated per channel
	bankUse  []uint16 // units allocated per bank
	lastBank int      // bank of the most recently allocated unit
	used     int      // allocated unit count
	naiveDie int      // home die under the ablation allocator
	// lastWrite is the STL's host-program count when a write last finished
	// with the block: how recently it was written, which picks the stream its
	// overwrites land in (overwriteStream).
	lastWrite int64

	// Compression state (§5.3.4): when compressed, the first physPages
	// slots hold the deflated image of compLen bytes.
	compressed bool
	compLen    int64
	physPages  int
}

func newBuildingBlock(pagesPerBB int, geo nvm.Geometry) *BuildingBlock {
	return &BuildingBlock{
		pages:    make([]pageSlot, pagesPerBB),
		chanUse:  make([]uint16, geo.Channels),
		bankUse:  make([]uint16, geo.Banks),
		lastBank: -1,
	}
}

// Channels reports how many distinct channels the block's units occupy.
func (b *BuildingBlock) Channels() int {
	n := 0
	for _, c := range b.chanUse {
		if c > 0 {
			n++
		}
	}
	return n
}

// indexNode is one node of the per-space B-tree. Non-leaf nodes hold child
// pointers; leaf nodes hold building-block entries.
type indexNode struct {
	children []*indexNode
	blocks   []*BuildingBlock
}

// newNode allocates a node for the given dimension level. Following
// Figure 6, the root (level 0) corresponds to the space's highest-order
// dimension (the outermost, d_n in the paper's numbering); the leaf level
// (len(grid)-1) corresponds to the lowest order, whose entries are building
// blocks.
func (s *Space) newNode(level int) *indexNode {
	if level == len(s.grid)-1 {
		return &indexNode{blocks: make([]*BuildingBlock, s.grid[level])}
	}
	return &indexNode{children: make([]*indexNode, s.grid[level])}
}

// block returns the building block at grid coordinate g, creating the path
// and entry when alloc is true. It is the geometry-aware variant used by the
// STL.
func (t *STL) block(s *Space, g []int64, alloc bool) (*BuildingBlock, int) {
	n := len(s.grid)
	if s.root == nil {
		if !alloc {
			return nil, 0
		}
		s.root = s.newNode(0)
	}
	node := s.root
	steps := 1
	for level := 0; level < n-1; level++ {
		idx := g[level]
		child := node.children[idx]
		if child == nil {
			if !alloc {
				return nil, steps
			}
			child = s.newNode(level + 1)
			node.children[idx] = child
		}
		node = child
		steps++
	}
	blk := node.blocks[g[n-1]]
	if blk == nil && alloc {
		blk = newBuildingBlock(s.pagesPerBB, t.geo)
		node.blocks[g[n-1]] = blk
	}
	return blk, steps
}

// IndexFootprint estimates the controller-DRAM size of a space's B-tree in
// bytes: 8 bytes per node entry (child pointer / block pointer) and 4 bytes
// per access-unit entry in the leaf page lists — a pageSlot, one page word;
// the full 8-byte reverse entries live in each unit's spare out-of-band area
// per §4.2, not in DRAM. This is the §7.3 accounting, which bounds the lookup
// structure at ~0.1% of storage capacity with 4 KB pages.
func (s *Space) IndexFootprint() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.countIndexBytes(s.root)
}

func (s *Space) countIndexBytes(n *indexNode) int64 {
	if n == nil {
		return 0
	}
	if n.blocks != nil {
		var b int64
		b += int64(len(n.blocks)) * 8
		for _, blk := range n.blocks {
			if blk != nil {
				b += int64(len(blk.pages)) * 4
			}
		}
		return b
	}
	b := int64(len(n.children)) * 8
	for _, c := range n.children {
		b += s.countIndexBytes(c)
	}
	return b
}
