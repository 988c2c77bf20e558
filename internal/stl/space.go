// Package stl implements the paper's core contribution: the space
// translation layer. The STL manages application-defined multi-dimensional
// address spaces over a raw flash array, storing each space as fixed-size
// building blocks whose pages are spread across all parallel channels (and
// banks for 3-D blocks), so that row, column, and tile accesses all engage
// full device parallelism. It contains:
//
//   - building-block sizing following the paper's Equations 1-4 (space.go)
//   - the N-level B-tree index from §4.2 (index.go)
//   - the channel/bank allocation policy and garbage collection with a
//     reverse-lookup table from §4.2 (alloc.go, gc.go)
//   - the space translator of §4.3 that remaps partitions requested in an
//     arbitrary application view onto building-block extents (translate.go)
//   - read assembly and write decomposition from §4.4 (batch.go, segments.go),
//     and sub-unit write staging (buffer.go)
package stl

import (
	"fmt"
	"sync"

	"nds/internal/nvm"
)

// SpaceID identifies an address space within one STL instance.
type SpaceID uint32

// Space is a multi-dimensional address space backed by building blocks.
type Space struct {
	id       SpaceID
	elemSize int
	dims     []int64 // d_1..d_n, d_n fastest-varying (row-major)
	bb       []int64 // building-block extent per dimension (1 beyond BB order)
	grid     []int64 // ceil(dims/bb): building blocks per dimension

	bbElems    int64 // elements per building block (including edge padding)
	bbBytes    int64 // bytes per building block
	pagesPerBB int   // basic access units per building block

	// mu is the space's data-path lock: partition reads hold it shared,
	// partition writes exclusive, so writers to *different* spaces run in
	// parallel while a space's own readers never observe a half-applied
	// write. It guards the index tree (root and below), the per-block usage
	// state, and the allocation statistics. In the STL lock order it sits
	// between the barrier and the die locks.
	mu sync.RWMutex

	// gen counts the resizes and the delete the space has been through; a
	// view opened at another count is stale. It, dims[0] and grid[0] change
	// only under the exclusive barrier and mu, so a reader holds either.
	gen uint64

	root *indexNode
	// dieFree is allocateUnit's fall-over snapshot: the free pages, less the
	// units planned there, of each channel's die in the bank being tried,
	// taken when a unit is not planned but taken (guarded by mu).
	dieFree []int64
	// staged holds the space's §4.4 staged pages (buffer.go), guarded by mu.
	staged map[pendingKey]*pendingPage
}

// ID returns the space identifier.
func (s *Space) ID() SpaceID { return s.id }

// ElemSize returns the element size in bytes.
func (s *Space) ElemSize() int { return s.elemSize }

// Dims returns a copy of the space dimensionality.
func (s *Space) Dims() []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]int64(nil), s.dims...)
}

// BlockDims returns a copy of the building-block dimensionality.
func (s *Space) BlockDims() []int64 { return append([]int64(nil), s.bb...) }

// GridDims returns a copy of the building-block grid dimensionality.
func (s *Space) GridDims() []int64 { return append([]int64(nil), s.grid...) }

// PagesPerBlock returns the number of basic access units per building block.
func (s *Space) PagesPerBlock() int { return s.pagesPerBB }

// Volume returns the number of elements in the space.
func (s *Space) Volume() int64 { return prod(s.dims) }

// Bytes returns the logical byte size of the space.
func (s *Space) Bytes() int64 { return s.Volume() * int64(s.elemSize) }

func (s *Space) String() string {
	return fmt.Sprintf("space %d: dims=%v elem=%dB bb=%v grid=%v (%d pages/bb)",
		s.id, s.dims, s.elemSize, s.bb, s.grid, s.pagesPerBB)
}

// prod multiplies the entries of v (1 for empty v).
func prod(v []int64) int64 {
	p := int64(1)
	for _, x := range v {
		p *= x
	}
	return p
}

// gridFits reports whether a grid of these positive dimensions holds at most
// maxGridBlocks building blocks.
func gridFits(grid []int64) bool {
	n := int64(1)
	for _, g := range grid {
		if g > maxGridBlocks/n {
			return false
		}
		n *= g
	}
	return true
}

// ceilDiv is ceil(a/b) for positive b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int64) int {
	k, p := 0, int64(1)
	for p < n {
		p <<= 1
		k++
	}
	return k
}

// rank converts a coordinate to its row-major linear index within dims.
func rank(coord, dims []int64) int64 {
	var idx int64
	for i := range dims {
		idx = idx*dims[i] + coord[i]
	}
	return idx
}

// unrank converts a row-major linear index to a coordinate within dims,
// filling out (which must have len(dims)).
func unrank(idx int64, dims, out []int64) {
	for i := len(dims) - 1; i >= 0; i-- {
		out[i] = idx % dims[i]
		idx /= dims[i]
	}
}

// BlockSizing describes how the STL sized building blocks for a space; it is
// exposed so tools and experiments can report the decision.
type BlockSizing struct {
	MinBytes   int64   // Equation 1 (or 3 for 3-D blocks)
	Order      int     // building-block dimensionality (1, 2, or 3)
	PerDim     int64   // elements per blocked dimension (Equations 2 / 4)
	Dims       []int64 // resulting bb vector, one entry per space dimension
	Bytes      int64   // bytes per building block
	PagesPerBB int     // basic access units per building block
}

// SizeBuildingBlock applies the paper's Equations 1-4.
//
// Equation 1: BB_min = MaxParallelRequests x BasicAccessGranularity, i.e. the
// channel count times the page size, so a minimum block spans one page on
// every channel. Equation 2 splits a 2-D block evenly:
// each dimension holds 2^ceil(log2(BB_min/N)/2) elements for element size N.
// Equation 3 scales BB_min by the bank count for 3-D blocks and Equation 4
// splits evenly across three dimensions.
//
// order selects the block dimensionality; 0 picks the paper default (2-D for
// spaces with >= 2 dims, 1-D otherwise; 3-D only on request). multiplier >= 1
// scales each blocked dimension, matching the prototype's use of 256x256
// blocks where Equation 2 yields 128x128.
func SizeBuildingBlock(geo nvm.Geometry, elemSize, ndims, order, multiplier int) (BlockSizing, error) {
	if elemSize <= 0 {
		return BlockSizing{}, fmt.Errorf("stl: element size must be positive, got %d: %w", elemSize, ErrInvalid)
	}
	if ndims <= 0 {
		return BlockSizing{}, fmt.Errorf("stl: space needs at least one dimension: %w", ErrInvalid)
	}
	if multiplier < 1 {
		multiplier = 1
	}
	if order == 0 {
		if ndims >= 2 {
			order = 2
		} else {
			order = 1
		}
	}
	if order < 1 || order > 3 {
		return BlockSizing{}, fmt.Errorf("stl: building-block order %d unsupported (1-3): %w", order, ErrInvalid)
	}
	if order > ndims {
		order = ndims
	}

	minBytes := int64(geo.Channels) * int64(geo.PageSize) // Equation 1
	if order == 3 {
		minBytes *= int64(geo.Banks) // Equation 3
	}
	elems := ceilDiv(minBytes, int64(elemSize))
	perDim := int64(1) << uint((ceilLog2(elems)+order-1)/order) // Equations 2/4
	perDim *= int64(multiplier)

	// Blocks cover the lowest-order (fastest-varying) dimensions — the
	// paper's (bb_1..bb_n) with bb_i = 1 for i > 3, where d_1 is the lowest
	// order; in this package's row-major dims the trailing entries.
	bb := make([]int64, ndims)
	for i := range bb {
		bb[i] = 1
	}
	for i := ndims - order; i < ndims; i++ {
		bb[i] = perDim
	}
	bytes := prod(bb) * int64(elemSize)
	return BlockSizing{
		MinBytes:   minBytes,
		Order:      order,
		PerDim:     perDim,
		Dims:       bb,
		Bytes:      bytes,
		PagesPerBB: int(ceilDiv(bytes, int64(geo.PageSize))),
	}, nil
}
