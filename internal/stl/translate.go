package stl

import "fmt"

// The space translator (§4.3). An application opens a space with its own view
// dimensionality (delta_1..delta_m) — any shape whose volume matches the
// space — and addresses data with a partition coordinate (x_1..x_m) plus a
// sub-dimensionality (f_1..f_m): the partition covers view elements
// [x_i*f_i, (x_i+1)*f_i) in each dimension (clamped at the view boundary).
//
// Both the view and the storage space linearize elements in row-major order
// over the same underlying sequence, so view-linear index and storage-linear
// index coincide; the translator decomposes a partition into maximal runs of
// consecutive linear indices and maps each run onto byte extents within
// building blocks — the concrete realisation of the paper's Equation 5.

// Extent is a contiguous byte range within one building block, paired with
// its destination offset in the partition buffer.
type Extent struct {
	Block int64 // row-major building-block grid index
	Off   int64 // byte offset within the building block
	Len   int64 // length in bytes
	Dst   int64 // byte offset within the partition buffer
}

// View is a validated application view of a space.
type View struct {
	space *Space
	dims  []int64
	gen   uint64 // the space's gen when the view opened

	stream streamState // the prefetcher's stride detector: a view is one command stream
}

// NewView validates an application view of space s: every dimension positive
// and the volume equal to the space volume (§3: "the volumes of these two
// dimensionalities [must] match"). The view lasts until the space is next
// resized or deleted.
func NewView(s *Space, dims []int64) (*View, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("stl: view needs at least one dimension: %w", ErrInvalid)
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("stl: view dimension %d is %d, must be positive: %w", i, d, ErrInvalid)
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if prod(dims) != s.Volume() {
		return nil, fmt.Errorf("stl: view volume %d does not match space volume %d: %w", prod(dims), s.Volume(), ErrInvalid)
	}
	return &View{space: s, dims: append([]int64(nil), dims...), gen: s.gen}, nil
}

// live refuses a view whose space was resized or deleted after it opened.
// The caller holds the barrier or the space's lock.
func (v *View) live() error {
	if v.gen != v.space.gen {
		return fmt.Errorf("stl: view of space %d opened before its last resize or delete: %w", v.space.id, ErrClosedView)
	}
	return nil
}

// Dims returns a copy of the view shape.
func (v *View) Dims() []int64 { return append([]int64(nil), v.dims...) }

// Space returns the underlying space.
func (v *View) Space() *Space { return v.space }

// PartitionShape returns the clamped extent of the partition at coord with
// sub-dimensionality sub, along with the element count.
func (v *View) PartitionShape(coord, sub []int64) ([]int64, int64, error) {
	shape := make([]int64, len(v.dims))
	elems, err := v.partitionShapeInto(coord, sub, shape)
	if err != nil {
		return nil, 0, err
	}
	return shape, elems, nil
}

// partitionShapeInto is PartitionShape writing into a caller-supplied shape
// slice (len(v.dims) entries) so the pooled request path allocates nothing.
func (v *View) partitionShapeInto(coord, sub []int64, shape []int64) (int64, error) {
	m := len(v.dims)
	if len(coord) != m || len(sub) != m {
		return 0, fmt.Errorf("stl: coordinate/sub-dimensionality rank %d/%d does not match view rank %d: %w",
			len(coord), len(sub), m, ErrInvalid)
	}
	for i := 0; i < m; i++ {
		if sub[i] <= 0 {
			return 0, fmt.Errorf("stl: sub-dimension %d is %d, must be positive: %w", i, sub[i], ErrInvalid)
		}
		lo := coord[i] * sub[i]
		hi := lo + sub[i]
		if coord[i] < 0 || lo >= v.dims[i] {
			return 0, fmt.Errorf("stl: coordinate %d=%d out of view dimension %d: %w", i, coord[i], v.dims[i], ErrBounds)
		}
		if hi > v.dims[i] {
			hi = v.dims[i]
		}
		shape[i] = hi - lo
	}
	return prod(shape), nil
}

// Extents decomposes the partition at coord/sub into building-block byte
// extents ordered by destination offset. The extent list is exact: its
// destinations tile [0, elements*elemSize) without gaps or overlaps. The
// result is sized by a counting walk first, so it is allocated once.
func (v *View) Extents(coord, sub []int64) ([]Extent, error) {
	shape, elems, err := v.PartitionShape(coord, sub)
	if err != nil {
		return nil, err
	}
	var w extentWalk
	w.start(v, coord, sub, shape, elems)
	n := w.count()
	w.start(v, coord, sub, shape, elems)
	exts, _ := w.next(make([]Extent, 0, n))
	return exts, nil
}

// ExtentCount reports how many extents Extents would return, and how many
// elements they cover, from the same walk with the list left unkept: for a
// caller that needs the count as a timing input and leaves the list to the
// request that follows. A stale view fails with ErrClosedView.
func (v *View) ExtentCount(coord, sub []int64) (n int, elems int64, err error) {
	v.space.mu.RLock()
	defer v.space.mu.RUnlock()
	if err := v.live(); err != nil {
		return 0, 0, err
	}
	shape, elems, err := v.PartitionShape(coord, sub)
	if err != nil {
		return 0, 0, err
	}
	var w extentWalk
	w.start(v, coord, sub, shape, elems)
	return w.count(), elems, nil
}

// extentWalk is the working state of one extent walk: an odometer over the
// storage coordinate of the next element to emit. Of the last storage
// dimension the walk keeps position, block and in-block offset (in locals
// while it runs); of each dimension above it, a walkDim: the digit and what
// the digit contributes to an extent's grid index and in-block element
// offset, with gHi and offHi the sums over those dimensions. The walk only
// ever moves forward: by a whole extent (the last dimension alone, by
// addition), or from the end of one partition run to the start of the next, a
// distance that depends only on which view digit advanced — steps holds its
// storage digits, one row of n per view dimension, row m-1 (no digit advanced:
// the run wrapped a storage row) all zero. A step adds a row with carry; a
// quotient and remainder against the block extent are taken again only for a
// digit that left its block.
//
// The walk is resumable: next hands out extents as long as the caller's
// buffer has room and keeps its place for the next call, so a consumer takes
// the list a batch at a time — a read never holds it whole — and the loop
// that makes extents calls nothing.
type extentWalk struct {
	dim        []walkDim // dimensions [0, n-1)
	gHi, offHi int64
	steps      []int64 // m rows of n storage digits
	outer      []int64 // the partition's outer counter, m digits
	shape      []int64 // the partition's shape, m entries

	// Constants of the walk: bytes an element; the last storage dimension's
	// length and block extent; a block row in bytes; the partition's runs.
	es, rowLen, bbLast, rowBytes, runs int64

	// The place between calls to next: run r of runs (0 before the first),
	// with remaining elements after the current stretch; the stretch's t bytes
	// still to hand out, ending at position pos of the storage row; the next
	// extent's block g, byte offset off in it, room bytes left in the block's
	// row, and destination dst.
	r, remaining, t, pos, g, off, room, dst int64
}

// walkDim is one storage dimension above the last: its digit sc, with
//
//	gt = sc/bb · gstride    ot = sc%bb · bstride
//
// where gstride and bstride are what one step along the dimension adds to a
// row-major grid index and to an element offset in a block.
type walkDim struct {
	sc, gt, ot                 int64
	size, bb, gstride, bstride int64
}

// seed positions the walk at storage-linear index l, sized for an
// m-dimensional view, and returns the last dimension's digit.
func (w *extentWalk) seed(s *Space, m int, l int64) (pos int64) {
	n := len(s.dims)
	if cap(w.dim) < n-1 {
		w.dim = make([]walkDim, n-1)
	}
	w.dim = w.dim[:n-1]
	w.steps, w.outer = growInt64(w.steps, m*n), growInt64(w.outer, m)
	clear(w.outer)
	pos, l = l%s.dims[n-1], l/s.dims[n-1]
	w.gHi, w.offHi = 0, 0
	gstride, bstride := s.grid[n-1], s.bb[n-1]
	for i := n - 2; i >= 0; i-- {
		sc := l % s.dims[i]
		l /= s.dims[i]
		q := sc / s.bb[i]
		d := walkDim{sc: sc, gt: q * gstride, ot: (sc - q*s.bb[i]) * bstride,
			size: s.dims[i], bb: s.bb[i], gstride: gstride, bstride: bstride}
		w.dim[i] = d
		w.gHi += d.gt
		w.offHi += d.ot
		gstride *= s.grid[i]
		bstride *= s.bb[i]
	}
	return pos
}

// carry adds digits d and a carry out of the last dimension to the digits
// above it. A digit that moves within its building block moves the offset
// term by the same distance; only one that leaves the block is divided again.
func (w *extentWalk) carry(d []int64, c int64) {
	for i := len(w.dim) - 1; i >= 0; i-- {
		dm := &w.dim[i]
		x := dm.sc + d[i] + c
		c = 0
		if x >= dm.size {
			x -= dm.size
			c = 1
		}
		if x == dm.sc {
			continue
		}
		ot := dm.ot + (x-dm.sc)*dm.bstride
		if ot < 0 || ot >= dm.bb*dm.bstride {
			q := x / dm.bb
			gt := q * dm.gstride
			ot = (x - q*dm.bb) * dm.bstride
			w.gHi += gt - dm.gt
			dm.gt = gt
		}
		w.offHi += ot - dm.ot
		dm.sc, dm.ot = x, ot
	}
}

// start positions the walk before the first extent of the partition at
// coord/sub of v, whose clamped shape (kept by the walk until it is done)
// holds elems elements.
func (w *extentWalk) start(v *View, coord, sub, shape []int64, elems int64) {
	s := v.space
	m := len(v.dims)
	n := len(s.dims)

	var l int64
	for i := 0; i < m; i++ {
		l = l*v.dims[i] + coord[i]*sub[i]
	}
	w.pos = w.seed(s, m, l)
	// When view digit i advances, the digits below it return to the
	// partition's origin: the next run starts stride[i] - Σ_{j>i}
	// (shape[j]-1)·stride[j] after this one started, shape[m-1] of which the
	// run itself covered.
	stride, back := int64(1), int64(0)
	for i := m - 1; i >= 0; i-- {
		unrank(stride-back-1, s.dims, w.steps[i*n:(i+1)*n])
		back += (shape[i] - 1) * stride
		stride *= v.dims[i]
	}
	w.shape = shape
	w.es = int64(s.elemSize)
	w.rowLen, w.bbLast = s.dims[n-1], s.bb[n-1]
	w.rowBytes = w.bbLast * w.es
	w.runs = elems / shape[m-1]
	w.r, w.remaining, w.t, w.dst = 0, 0, 0, 0
}

// next appends the walk's next extents to exts while it has room (up to its
// capacity, never beyond) and reports whether any are left.
//
// The list is one extent per partition run per building block the run
// crosses, and its length is a timing input (RequestStats.Extents sizes
// assembly, scatter and disassembly): extents that happen to be contiguous in
// a block are not merged.
func (w *extentWalk) next(exts []Extent) ([]Extent, bool) {
	m, n := len(w.outer), len(w.dim)+1
	es, rowLen, bbLast, rowBytes := w.es, w.rowLen, w.bbLast, w.rowBytes
	r, remaining, t, pos := w.r, w.remaining, w.t, w.pos
	g, off, room, dst := w.g, w.off, w.room, w.dst
	more := true
walk:
	for {
		// Each run is shape[m-1] consecutive view-linear (== storage-linear)
		// elements: stretches of storage rows, each split at the
		// building-block boundaries of the last storage dimension. Within a
		// stretch the block index, the byte offset in the block and the bytes
		// left in the block's row (room) move by addition.
		for t > 0 {
			k := len(exts)
			if k == cap(exts) {
				break walk
			}
			take := min64(room, t)
			exts = exts[:k+1]
			exts[k] = Extent{Block: g, Off: off, Len: take, Dst: dst}
			dst += take
			t -= take
			// The next extent of the stretch starts block g+1.
			if room -= take; room == 0 {
				g, off, room = g+1, off+take-rowBytes, rowBytes
			} else {
				off += take
			}
		}
		if remaining == 0 {
			if r == w.runs {
				more = false
				break
			}
			if r > 0 {
				// Advance the outer counter (last outer dimension fastest)
				// and step to the run it names.
				lv := m - 2
				for ; ; lv-- {
					if w.outer[lv]++; w.outer[lv] < w.shape[lv] {
						break
					}
					w.outer[lv] = 0
				}
				d := w.steps[lv*n : (lv+1)*n]
				var up int64
				if pos += d[n-1]; pos >= rowLen {
					pos, up = pos-rowLen, 1
				}
				w.carry(d, up)
			}
			r++
			q := pos / bbLast
			g, off, room = w.gHi+q, (w.offHi+pos-q*bbLast)*es, ((q+1)*bbLast-pos)*es
			remaining = w.shape[m-1]
		} else {
			// The run continues on the next storage row.
			w.carry(w.steps[(m-1)*n:], 1)
			pos, g, off, room = 0, w.gHi, w.offHi*es, rowBytes
		}
		// The next stretch: to the end of the storage row or of the run.
		span := min64(rowLen-pos, remaining)
		remaining -= span
		pos += span
		t = span * es
	}
	w.r, w.remaining, w.t, w.pos = r, remaining, t, pos
	w.g, w.off, w.room, w.dst = g, off, room, dst
	return exts, more
}

// count runs the walk to its end and returns how many extents it made.
func (w *extentWalk) count() int {
	var buf [walkBatch]Extent
	n := 0
	for more := true; more; {
		var b []Extent
		b, more = w.next(buf[:0])
		n += len(b)
	}
	return n
}

// BlockGridIndex returns the row-major grid index of grid coordinate g.
func (s *Space) BlockGridIndex(g []int64) int64 { return rank(g, s.grid) }

// GridCoord fills out with the grid coordinate of row-major grid index idx.
func (s *Space) GridCoord(idx int64, out []int64) { unrank(idx, s.grid, out) }
