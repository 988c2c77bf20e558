package stl

import (
	"math"
	"math/bits"
	"slices"
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

// BuildingBlock is a leaf entry: the page list, and what the allocation
// policy of §4.2 needs of the block that its slots cannot say. How many units
// the block holds, per channel and per bank, its slots do say: a request
// counts them when it places a unit there (blockUse).
type BuildingBlock struct {
	pages []pageSlot
	// lastDie is the die (STL.dies index) of the unit placed last, -1 before
	// the first: rule 2's bank, and the ablation allocator's home die. A
	// relocation does not move it.
	lastDie int
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

func newBuildingBlock(pagesPerBB int) *BuildingBlock {
	return &BuildingBlock{pages: make([]pageSlot, pagesPerBB), lastDie: -1}
}

// blockUse is a building block's units as one request counts them: per
// channel, per bank and in all. The request reads them off the block's slots
// when it first places a fresh unit there (count) and adds each unit it
// places after that (note), planned units included, which no slot holds yet.
// Nothing is stored between requests, so nothing can drift from the slots.
//
// sweep is the set of channels at the least count, one bit per channel,
// sweepLeft of them: the channels the current sweep of rule 2 has still to
// give a unit.
type blockUse struct {
	counted   bool
	chans     []uint16
	banks     []uint16
	used      int
	sweep     []uint64
	sweepLeft int
}

// count reads blk's units off its slots, on a device of geometry geo whose
// page words lay packs.
func (u *blockUse) count(blk *BuildingBlock, geo nvm.Geometry, lay *nvm.Layout) {
	if len(u.chans) != geo.Channels || len(u.banks) != geo.Banks {
		use := make([]uint16, geo.Channels+geo.Banks) // both counts, one allocation
		u.chans, u.banks = use[:geo.Channels:geo.Channels], use[geo.Channels:]
		u.sweep = make([]uint64, (geo.Channels+63)/64)
	}
	clear(u.chans)
	clear(u.banks)
	u.used = 0
	for i := range blk.pages {
		if v := blk.pages[i].load(); v.allocated() {
			u.chans[lay.Channel(v.word())]++
			u.banks[lay.Bank(v.word())]++
			u.used++
		}
	}
	u.counted = true
	u.rebuildSweep()
}

// note counts a unit placed on channel ch of bank bk. A unit on a channel of
// the sweep takes it out; the sweep's last one starts the next sweep, so the
// O(channels) rebuild runs once a sweep, not once a unit.
func (u *blockUse) note(ch, bk int) {
	u.chans[ch]++
	u.banks[bk]++
	u.used++
	if w, bit := &u.sweep[ch/64], uint64(1)<<(ch%64); *w&bit != 0 {
		*w &^= bit
		if u.sweepLeft--; u.sweepLeft == 0 {
			u.rebuildSweep()
		}
	}
}

// rebuildSweep makes the sweep the channels at the least count.
func (u *blockUse) rebuildSweep() {
	least := slices.Min(u.chans)
	clear(u.sweep)
	u.sweepLeft = 0
	for ch, n := range u.chans {
		if n == least {
			u.sweep[ch/64] |= 1 << (ch % 64)
			u.sweepLeft++
		}
	}
}

// leastChannel is the first channel of nextChannel's order: of the sweep's
// channels, the one whose die has the most free pages — its entry in row, the
// bank's live counts, less its entry in planned (freeLess) — and of those the
// lowest.
func (u *blockUse) leastChannel(row []atomic.Int64, planned []int32) int {
	best, most := -1, int64(math.MinInt64)
	for i, w := range u.sweep {
		for ; w != 0; w &= w - 1 {
			ch := i*64 + bits.TrailingZeros64(w)
			if f := freeLess(row, planned, ch); f > most {
				best, most = ch, f
			}
		}
	}
	return best
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
		blk = newBuildingBlock(s.pagesPerBB)
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
