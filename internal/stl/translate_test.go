package stl

import (
	"math/rand"
	"sort"
	"testing"

	"nds/internal/nvm"
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
	s, err := New(dev, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
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

// refScatterGather is an independent element-at-a-time model of partition
// addressing: view coordinates map to the shared row-major linear order.
type refModel struct {
	buf  []byte // linear space image
	elem int
}

func newRefModel(s *Space) *refModel {
	return &refModel{buf: make([]byte, s.Bytes()), elem: s.ElemSize()}
}

func (r *refModel) forEach(view, coord, sub []int64, f func(linear, k int64)) {
	m := len(view)
	shape := make([]int64, m)
	for i := range shape {
		lo := coord[i] * sub[i]
		hi := lo + sub[i]
		if hi > view[i] {
			hi = view[i]
		}
		shape[i] = hi - lo
	}
	idx := make([]int64, m)
	var k int64
	for {
		abs := make([]int64, m)
		for i := range abs {
			abs[i] = coord[i]*sub[i] + idx[i]
		}
		f(rank(abs, view), k)
		k++
		i := m - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

func (r *refModel) scatter(view, coord, sub []int64, data []byte) {
	r.forEach(view, coord, sub, func(linear, k int64) {
		copy(r.buf[linear*int64(r.elem):], data[k*int64(r.elem):(k+1)*int64(r.elem)])
	})
}

func (r *refModel) gather(view, coord, sub []int64) []byte {
	var out []byte
	r.forEach(view, coord, sub, func(linear, k int64) {
		out = append(out, r.buf[linear*int64(r.elem):(linear+1)*int64(r.elem)]...)
	})
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
