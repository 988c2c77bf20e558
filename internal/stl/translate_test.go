package stl

import (
	"math/rand"
	"sort"
	"testing"

	"nds/internal/nvm"
	"nds/internal/spec"
)

func smallGeo() nvm.Geometry {
	// BB_min = 4 channels x 512 B = 2 KB; 4-byte elements -> 32x32 blocks
	// (4 KB = 8 pages).
	return nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 32, PagesPerBlock: 16, PageSize: 512}
}

func newTestSTL(t *testing.T, phantom bool) *STL {
	t.Helper()
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), phantom)
	if err != nil {
		t.Fatal(err)
	}
	return mustNew(t, dev, DefaultConfig())
}

// mustNew builds an STL on dev and closes it, and dev with it, when the test
// ends.
func mustNew(t testing.TB, dev *nvm.Device, cfg Config) *STL {
	t.Helper()
	st, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustSpace(t *testing.T, st *STL, elem int, dims ...int64) *Space {
	t.Helper()
	s, err := st.CreateSpace(elem, dims)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustView(t *testing.T, s *Space, dims ...int64) *View {
	t.Helper()
	v, err := NewView(s, dims)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestViewValidation(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 64, 64)
	if _, err := NewView(s, []int64{64, 64}); err != nil {
		t.Errorf("identity view rejected: %v", err)
	}
	if _, err := NewView(s, []int64{4096}); err != nil {
		t.Errorf("flat view rejected: %v", err)
	}
	if _, err := NewView(s, []int64{128, 32}); err != nil {
		t.Errorf("reshaped view rejected: %v", err)
	}
	if _, err := NewView(s, []int64{64, 63}); err == nil {
		t.Error("volume-mismatched view accepted")
	}
	if _, err := NewView(s, []int64{}); err == nil {
		t.Error("empty view accepted")
	}
	if _, err := NewView(s, []int64{-64, -64}); err == nil {
		t.Error("negative view accepted")
	}
}

func TestPartitionShapeClamps(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 100, 64)
	v := mustView(t, s, 100, 64)
	shape, n, err := v.PartitionShape([]int64{1, 0}, []int64{60, 64})
	if err != nil {
		t.Fatal(err)
	}
	if shape[0] != 40 || shape[1] != 64 {
		t.Fatalf("clamped shape = %v, want [40 64]", shape)
	}
	if n != 40*64 {
		t.Fatalf("elements = %d, want %d", n, 40*64)
	}
	if _, _, err := v.PartitionShape([]int64{2, 0}, []int64{60, 64}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, _, err := v.PartitionShape([]int64{0, 0}, []int64{0, 64}); err == nil {
		t.Error("zero sub-dimension accepted")
	}
	if _, _, err := v.PartitionShape([]int64{0}, []int64{60, 64}); err == nil {
		t.Error("rank mismatch accepted")
	}
}

// TestExtentsTileExactly: extents must cover the destination buffer exactly
// once, stay within block bounds, and sum to the partition size.
func TestExtentsTileExactly(t *testing.T) {
	st := newTestSTL(t, true)
	s := mustSpace(t, st, 4, 96, 80) // not multiples of the 32x32 block
	checkTiling := func(v *View, coord, sub []int64) {
		t.Helper()
		exts, err := v.Extents(coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		_, elems, _ := v.PartitionShape(coord, sub)
		want := elems * int64(s.elemSize)
		sort.Slice(exts, func(i, j int) bool { return exts[i].Dst < exts[j].Dst })
		var pos int64
		for _, e := range exts {
			if e.Dst != pos {
				t.Fatalf("gap/overlap at destination %d (extent starts %d)", pos, e.Dst)
			}
			if e.Len <= 0 {
				t.Fatalf("non-positive extent length %d", e.Len)
			}
			if e.Off < 0 || e.Off+e.Len > s.bbBytes {
				t.Fatalf("extent [%d,%d) outside block of %d bytes", e.Off, e.Off+e.Len, s.bbBytes)
			}
			if e.Block < 0 || e.Block >= prod(s.grid) {
				t.Fatalf("block index %d outside grid %v", e.Block, s.grid)
			}
			pos += e.Len
		}
		if pos != want {
			t.Fatalf("extents cover %d bytes, want %d", pos, want)
		}
	}
	v := mustView(t, s, 96, 80)
	checkTiling(v, []int64{0, 0}, []int64{96, 80}) // whole space
	checkTiling(v, []int64{1, 1}, []int64{32, 32}) // aligned tile
	checkTiling(v, []int64{2, 1}, []int64{40, 48}) // unaligned, clamped tile
	checkTiling(v, []int64{0, 3}, []int64{96, 16}) // column band
	checkTiling(v, []int64{5, 0}, []int64{16, 80}) // row band
	flat := mustView(t, s, 96*80)
	checkTiling(flat, []int64{3, 0}[:1], []int64{997}) // odd flat partition
	resh := mustView(t, s, 40, 192)
	checkTiling(resh, []int64{1, 2}, []int64{13, 57}) // reshaped odd tile
}

// refModel is the model of one space (internal/spec), addressed through a
// view of the shape a call names.
type refModel struct {
	m  *spec.Model
	id uint32
}

func newRefModel(s *Space) *refModel {
	m := spec.New()
	id, err := m.Create(s.ElemSize(), s.Dims())
	if err != nil {
		panic(err)
	}
	return &refModel{m, id}
}

// view opens a view of the model's space shaped like view.
func (r *refModel) view(view []int64) *spec.View {
	v, err := r.m.Open(r.id, view)
	if err != nil {
		panic(err)
	}
	return v
}

func (r *refModel) scatter(view, coord, sub []int64, data []byte) {
	v := r.view(view)
	defer v.Close()
	if err := v.Write(coord, sub, data); err != nil {
		panic(err)
	}
}

func (r *refModel) gather(view, coord, sub []int64) []byte {
	v := r.view(view)
	defer v.Close()
	out, err := v.Read(coord, sub)
	if err != nil {
		panic(err)
	}
	return out
}

func fillRandom(rng *rand.Rand, n int64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// pasteTile applies a partition write to a host mirror: img is the row-major
// image of a two-dimensional space cols elements wide, es bytes an element,
// and tile the payload written at coord/sub (partition units).
func pasteTile(img []byte, cols, es int64, coord, sub []int64, tile []byte) {
	rowBytes := sub[1] * es
	for r := int64(0); r < sub[0]; r++ {
		at := ((coord[0]*sub[0]+r)*cols + coord[1]*sub[1]) * es
		copy(img[at:at+rowBytes], tile[r*rowBytes:(r+1)*rowBytes])
	}
}

// TestReadWriteMatchesReference drives the full STL data path (write via one
// view, read via others) against the reference model.
func TestReadWriteMatchesReference(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 96, 80)
	ref := newRefModel(s)
	rng := rand.New(rand.NewSource(99))

	// Producer writes the whole space as 3x5 tiles of 32x16.
	prod := mustView(t, s, 96, 80)
	for i := int64(0); i < 3; i++ {
		for j := int64(0); j < 5; j++ {
			coord := []int64{i, j}
			sub := []int64{32, 16}
			_, n, err := prod.PartitionShape(coord, sub)
			if err != nil {
				t.Fatal(err)
			}
			data := fillRandom(rng, n*4)
			if _, _, err := st.WritePartition(0, prod, coord, sub, data); err != nil {
				t.Fatal(err)
			}
			ref.scatter(prod.Dims(), coord, sub, data)
		}
	}

	check := func(v *View, coord, sub []int64) {
		t.Helper()
		got, _, _, err := st.ReadPartition(0, v, coord, sub)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.gather(v.Dims(), coord, sub)
		if len(got) != len(want) {
			t.Fatalf("read %d bytes, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("byte %d = %#x, want %#x (view=%v coord=%v sub=%v)",
					i, got[i], want[i], v.Dims(), coord, sub)
			}
		}
	}

	check(prod, []int64{0, 0}, []int64{96, 80})                    // whole space
	check(prod, []int64{1, 1}, []int64{32, 32})                    // aligned tile
	check(prod, []int64{0, 79}, []int64{96, 1})                    // single column
	check(prod, []int64{41, 0}, []int64{1, 80})                    // single row
	check(prod, []int64{1, 1}, []int64{33, 21})                    // odd tile
	check(mustView(t, s, 7680), []int64{2}, []int64{1000})         // flat consumer
	check(mustView(t, s, 48, 160), []int64{1, 2}, []int64{17, 39}) // reshaped consumer
	check(mustView(t, s, 96, 80), []int64{1, 1}, []int64{56, 44})  // clamped tail
}

// TestOverwritePartition verifies overwrites replace exactly the partition
// and leave neighbours intact, through the RMW and replacement-unit path.
func TestOverwritePartition(t *testing.T) {
	st := newTestSTL(t, false)
	s := mustSpace(t, st, 4, 64, 64)
	ref := newRefModel(s)
	rng := rand.New(rand.NewSource(5))
	v := mustView(t, s, 64, 64)

	whole := fillRandom(rng, s.Bytes())
	if _, _, err := st.WritePartition(0, v, []int64{0, 0}, []int64{64, 64}, whole); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), []int64{0, 0}, []int64{64, 64}, whole)

	// Overwrite an unaligned interior tile (forces read-modify-write).
	coord, sub := []int64{3, 5}, []int64{13, 9}
	_, n, _ := v.PartitionShape(coord, sub)
	patch := fillRandom(rng, n*4)
	if _, _, err := st.WritePartition(0, v, coord, sub, patch); err != nil {
		t.Fatal(err)
	}
	ref.scatter(v.Dims(), coord, sub, patch)

	got, _, _, err := st.ReadPartition(0, v, []int64{0, 0}, []int64{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.gather(v.Dims(), []int64{0, 0}, []int64{64, 64})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("byte %d differs after overwrite", i)
		}
	}
}

// TestPropertyRandomRoundTrip is the package's main property test: random
// space shapes, random producer/consumer views, random partitions — the STL
// must always agree with the reference model.
func TestPropertyRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		st := newTestSTL(t, false)
		ndims := 1 + rng.Intn(3)
		dims := make([]int64, ndims)
		vol := int64(1)
		for i := range dims {
			dims[i] = int64(3 + rng.Intn(60))
			vol *= dims[i]
		}
		elem := []int{1, 2, 4, 8}[rng.Intn(4)]
		s, err := st.CreateSpace(elem, dims)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bytes() > 512*1024 {
			continue // keep trials fast
		}
		ref := newRefModel(s)
		v := mustView(t, s, dims...)

		// A few random writes...
		for w := 0; w < 4; w++ {
			coord := make([]int64, ndims)
			sub := make([]int64, ndims)
			for i := range coord {
				sub[i] = 1 + rng.Int63n(dims[i])
				coord[i] = rng.Int63n((dims[i] + sub[i] - 1) / sub[i])
			}
			_, n, err := v.PartitionShape(coord, sub)
			if err != nil {
				t.Fatal(err)
			}
			data := fillRandom(rng, n*int64(elem))
			if _, _, err := st.WritePartition(0, v, coord, sub, data); err != nil {
				t.Fatalf("trial %d write: %v", trial, err)
			}
			ref.scatter(dims, coord, sub, data)
		}
		// ...and random reads, through a random consumer view.
		cv := v
		if vol%2 == 0 && rng.Intn(2) == 0 {
			cv = mustView(t, s, 2, vol/2)
		}
		for r := 0; r < 4; r++ {
			cd := cv.Dims()
			coord := make([]int64, len(cd))
			sub := make([]int64, len(cd))
			for i := range coord {
				sub[i] = 1 + rng.Int63n(cd[i])
				coord[i] = rng.Int63n((cd[i] + sub[i] - 1) / sub[i])
			}
			got, _, _, err := st.ReadPartition(0, cv, coord, sub)
			if err != nil {
				t.Fatalf("trial %d read: %v", trial, err)
			}
			want := ref.gather(cd, coord, sub)
			if len(got) != len(want) {
				t.Fatalf("trial %d: read %d bytes, want %d", trial, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: byte %d mismatch (view=%v coord=%v sub=%v)",
						trial, i, cd, coord, sub)
				}
			}
		}
	}
}

// refExtents is the extent walk as it was before the odometer — every extent's
// storage coordinate re-derived from its linear index by division — kept as
// the oracle the walk is held to, element for element.
func refExtents(v *View, coord, sub, shape []int64, elems int64) []Extent {
	s := v.space
	es := int64(s.elemSize)
	m, n := len(v.dims), len(s.dims)
	outer, cur, sc := make([]int64, m), make([]int64, m), make([]int64, n)
	var exts []Extent
	runLen := shape[m-1]
	var dst int64
	for r := int64(0); r < elems/runLen; r++ {
		for i := 0; i < m; i++ {
			cur[i] = coord[i]*sub[i] + outer[i]
		}
		l := rank(cur, v.dims)
		for remaining := runLen; remaining > 0; {
			unrank(l, s.dims, sc)
			t := min(s.dims[n-1]-sc[n-1], remaining)
			for pos, end := sc[n-1], sc[n-1]+t; pos < end; {
				take := min(s.bb[n-1]-pos%s.bb[n-1], end-pos)
				var gIdx, off int64
				for i := 0; i < n; i++ {
					c := sc[i]
					if i == n-1 {
						c = pos
					}
					gIdx = gIdx*s.grid[i] + c/s.bb[i]
					off = off*s.bb[i] + c%s.bb[i]
				}
				exts = append(exts, Extent{Block: gIdx, Off: off * es, Len: take * es, Dst: dst})
				dst += take * es
				pos += take
			}
			l += t
			remaining -= t
		}
		for i := m - 2; i >= 0; i-- {
			if outer[i]++; outer[i] < shape[i] {
				break
			}
			outer[i] = 0
		}
	}
	return exts
}

// checkWalk holds Extents and ExtentCount to the reference on one partition.
func checkWalk(t testing.TB, v *View, coord, sub []int64) {
	t.Helper()
	shape, elems, err := v.PartitionShape(coord, sub)
	if err != nil {
		t.Fatalf("view %v coord %v sub %v: %v", v.dims, coord, sub, err)
	}
	want := refExtents(v, coord, sub, shape, elems)
	got, err := v.Extents(coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	n, counted, err := v.ExtentCount(coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	if counted != elems {
		t.Fatalf("ExtentCount covers %d elements, partition has %d", counted, elems)
	}
	if len(got) != len(want) || n != len(want) {
		t.Fatalf("space %v bb %v view %v coord %v sub %v: %d extents, count %d, reference %d",
			v.space.dims, v.space.bb, v.dims, coord, sub, len(got), n, len(want))
	}
	if cap(got) != len(got) {
		t.Fatalf("Extents allocated %d entries for %d", cap(got), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("space %v bb %v view %v coord %v sub %v: extent %d is %+v, reference %+v",
				v.space.dims, v.space.bb, v.dims, coord, sub, i, got[i], want[i])
		}
	}
	// Taken a few extents at a time, the walk resumes where it stopped: at any
	// extent of a stretch, of a run, or at the end.
	for _, batch := range []int{1, 3, 7} {
		var w extentWalk
		w.start(v, coord, sub, shape, elems)
		var parts []Extent
		for more := true; more; {
			var b []Extent
			b, more = w.next(make([]Extent, 0, batch))
			if len(b) == 0 || len(b) < batch && more {
				t.Fatalf("batches of %d: one of %d extents with more to come", batch, len(b))
			}
			parts = append(parts, b...)
		}
		if len(parts) != len(want) {
			t.Fatalf("batches of %d: %d extents, reference %d", batch, len(parts), len(want))
		}
		for i := range want {
			if parts[i] != want[i] {
				t.Fatalf("batches of %d: extent %d is %+v, reference %+v", batch, i, parts[i], want[i])
			}
		}
	}
}

// walkSpace creates a phantom space with the given block order (0: default).
func walkSpace(t testing.TB, order, elem int, dims ...int64) *Space {
	t.Helper()
	return walkSpaceMult(t, order, 1, elem, dims...)
}

// walkSpaceMult is walkSpace with building blocks mult pages deep: a
// multiplier of 3 makes the last dimension's block extent no power of two.
func walkSpaceMult(t testing.TB, order, mult, elem int, dims ...int64) *Space {
	t.Helper()
	dev, err := nvm.NewDevice(smallGeo(), nvm.TLCTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BBOrder = order
	cfg.BBMultiplier = mult
	st := mustNew(t, dev, cfg)
	s, err := st.CreateSpace(elem, dims)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// walkCase is one view of one space; every partition of the listed
// sub-dimensionalities is checked, so clamped edge partitions are too.
type walkCase struct {
	order, elem int
	dims, view  []int64
	subs        [][]int64
}

var walkCases = []walkCase{
	// 1-D space: blocks along the only dimension.
	{0, 4, []int64{5000}, []int64{5000}, [][]int64{{5000}, {997}, {512}, {1}}},
	{0, 8, []int64{5000}, []int64{50, 100}, [][]int64{{7, 33}, {50, 100}, {1, 100}, {50, 1}}},
	// 2-D, dimensions not multiples of the 32x32 block.
	{0, 4, []int64{96, 80}, []int64{96, 80}, [][]int64{{96, 80}, {32, 32}, {40, 48}, {96, 16}, {16, 80}, {1, 80}, {96, 1}, {5, 7}}},
	{1, 4, []int64{96, 80}, []int64{96, 80}, [][]int64{{96, 80}, {40, 48}, {96, 16}}},
	// Reshaped views of it: rank lower and higher, rows that wrap storage rows.
	{0, 4, []int64{96, 80}, []int64{7680}, [][]int64{{7680}, {997}, {80}, {81}}},
	{0, 4, []int64{96, 80}, []int64{40, 192}, [][]int64{{13, 57}, {40, 192}, {1, 192}, {40, 1}, {3, 161}}},
	{0, 4, []int64{96, 80}, []int64{4, 24, 80}, [][]int64{{2, 5, 33}, {4, 24, 80}, {1, 24, 1}}},
	{0, 4, []int64{96, 80}, []int64{3, 2, 16, 80}, [][]int64{{2, 2, 5, 33}, {3, 1, 16, 7}}},
	{0, 4, []int64{96, 80}, []int64{192, 40}, [][]int64{{100, 17}, {192, 40}, {5, 40}}},
	// 3-D space under block orders 1 to 3.
	{1, 4, []int64{10, 40, 72}, []int64{10, 40, 72}, [][]int64{{10, 40, 72}, {3, 17, 25}, {1, 40, 8}, {10, 1, 72}}},
	{2, 4, []int64{10, 40, 72}, []int64{10, 40, 72}, [][]int64{{10, 40, 72}, {3, 17, 25}, {1, 40, 8}, {10, 1, 72}}},
	{3, 4, []int64{20, 40, 72}, []int64{20, 40, 72}, [][]int64{{20, 40, 72}, {3, 17, 25}, {7, 40, 8}, {20, 1, 72}}},
	{3, 2, []int64{20, 40, 72}, []int64{800, 72}, [][]int64{{33, 50}, {800, 9}}},
	{2, 4, []int64{10, 40, 72}, []int64{28800}, [][]int64{{1111}, {72}, {2881}}},
	{2, 4, []int64{10, 40, 72}, []int64{5, 2, 40, 72}, [][]int64{{2, 2, 7, 70}, {5, 1, 40, 3}}},
	// 4-D space: the dimensions above the block order have bb = 1.
	{2, 4, []int64{3, 4, 40, 36}, []int64{3, 4, 40, 36}, [][]int64{{3, 4, 40, 36}, {2, 3, 17, 25}, {1, 4, 1, 36}, {3, 1, 40, 5}}},
	{3, 4, []int64{3, 4, 40, 36}, []int64{12, 1440}, [][]int64{{5, 700}, {12, 37}}},
	{1, 4, []int64{3, 4, 40, 36}, []int64{3, 4, 40, 36}, [][]int64{{2, 3, 17, 25}}},
}

// forEachPartition calls f with every partition coordinate of view dims under
// sub.
func forEachPartition(dims, sub []int64, f func(coord []int64)) {
	coord := make([]int64, len(dims))
	for {
		f(coord)
		i := len(dims) - 1
		for ; i >= 0; i-- {
			if coord[i]++; coord[i]*sub[i] < dims[i] {
				break
			}
			coord[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// TestWalkMatchesReference: the odometer emits the list the dividing walk
// emitted — same blocks, offsets, lengths and destinations in the same order,
// nothing merged — for every partition of every case.
func TestWalkMatchesReference(t *testing.T) {
	for _, c := range walkCases {
		v := mustView(t, walkSpace(t, c.order, c.elem, c.dims...), c.view...)
		for _, sub := range c.subs {
			forEachPartition(c.view, sub, func(coord []int64) { checkWalk(t, v, coord, sub) })
		}
	}
}

// FuzzExtents draws a space, a factorisation of its volume as the view, and a
// partition from the fuzzer and holds the walk to the reference. The order
// byte's bits above the block order pick the building-block multiplier, 1 to
// 3; every case is seeded at 1 and at 3, whose last-dimension block extent
// is no power of two.
func FuzzExtents(f *testing.F) {
	for _, c := range walkCases {
		var d, vw, sb [4]uint16
		for i := range c.dims {
			d[i] = uint16(c.dims[i])
		}
		if len(c.view) > 4 || prod(c.view) != prod(c.dims) {
			continue
		}
		for _, sub := range c.subs {
			for i := range c.view {
				vw[i], sb[i] = uint16(c.view[i]), uint16(sub[i])
			}
			for _, mult := range []uint8{0, 2} {
				f.Add(uint8(c.order)+4*mult, uint8(len(c.dims)), d[0], d[1], d[2], d[3],
					uint8(len(c.view)), vw[0], vw[1], vw[2], sb[0], sb[1], sb[2], sb[3], uint32(1))
			}
		}
	}
	f.Fuzz(func(t *testing.T, order, n uint8, d0, d1, d2, d3 uint16,
		m uint8, v0, v1, v2, s0, s1, s2, s3 uint16, at uint32) {
		n, m = n%4+1, m%4+1
		dims := []int64{int64(d0%96) + 1, int64(d1%96) + 1, int64(d2%96) + 1, int64(d3%96) + 1}[4-int(n):]
		// The view takes what divides the remaining volume from each wish and
		// leaves the rest to its last dimension.
		view := make([]int64, m)
		rest := prod(dims)
		for i, w := range []uint16{v0, v1, v2}[:m-1] {
			view[i] = 1
			for k := int64(w)%rest + 1; k >= 1; k-- {
				if rest%k == 0 {
					view[i] = k
					break
				}
			}
			rest /= view[i]
		}
		view[m-1] = rest
		sub, coord := make([]int64, m), make([]int64, m)
		pick := int64(at)
		for i, w := range []uint16{s0, s1, s2, s3}[:m] {
			sub[i] = int64(w)%view[i] + 1
			parts := ceilDiv(view[i], sub[i])
			coord[i] = pick % parts
			pick /= parts
		}
		s := walkSpaceMult(t, int(order%4), 1+int(order/4)%3, 4, dims...)
		v, err := NewView(s, view)
		if err != nil {
			t.Fatal(err)
		}
		checkWalk(t, v, coord, sub)
	})
}

// benchWalk times the pooled walk (requestScratch.translate) of one partition
// shape of an 8192x8192 space of doubles in 256x256 blocks, per extent.
func benchWalk(b *testing.B, coord, sub []int64) {
	geo := nvm.Geometry{Channels: 32, Banks: 8, BlocksPerBank: 64, PagesPerBlock: 256, PageSize: 4096}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), true)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.BBMultiplier = 2
	st := mustNew(b, dev, cfg)
	s, err := st.CreateSpace(8, []int64{8192, 8192})
	if err != nil {
		b.Fatal(err)
	}
	if s.bb[0] != 256 || s.bb[1] != 256 {
		b.Fatalf("blocks are %v, want 256x256", s.bb)
	}
	v, err := NewView(s, []int64{8192, 8192})
	if err != nil {
		b.Fatal(err)
	}
	rs := st.getScratch(s)
	defer st.putScratch(rs)
	exts, _, err := rs.translate(v, coord, sub)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.translate(v, coord, sub)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(exts)), "ns/extent")
}

func BenchmarkWalkRow(b *testing.B)  { benchWalk(b, []int64{1, 0}, []int64{512, 8192}) }
func BenchmarkWalkCol(b *testing.B)  { benchWalk(b, []int64{0, 1}, []int64{8192, 512}) }
func BenchmarkWalkTile(b *testing.B) { benchWalk(b, []int64{1, 1}, []int64{1024, 1024}) }

// TestPageRangesOddPageSize holds the plans' page-range code — one division
// finds an extent's first page, additions the rest — to the model and the
// golden trace on a page size that is not a power of two and does not divide
// the building block: bytes, statistics and completion times over row,
// column, tile and sub-page requests.
func TestPageRangesOddPageSize(t *testing.T) {
	geo := nvm.Geometry{Channels: 4, Banks: 2, BlocksPerBank: 48, PagesPerBlock: 16, PageSize: 360}
	dev, err := nvm.NewDevice(geo, nvm.TLCTiming(), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(t, dev, DefaultConfig())
	c := sc.space(t, 4, []int64{128, 128}, []int64{128, 128})
	if bb := c.v.space.bbBytes; bb%int64(geo.PageSize) == 0 {
		t.Fatalf("a %d-byte block is whole pages of %d: no extent would straddle the odd tail", bb, geo.PageSize)
	}
	mixedWorkload(t, sc, c, 4)
	sc.golden(t, "TestPageRangesOddPageSize")
}
