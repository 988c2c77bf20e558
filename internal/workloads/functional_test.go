package workloads

import (
	"bytes"
	"math"
	"testing"

	"nds/internal/datagen"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/tensor"
)

// The functional suite runs every Table 1 workload at miniature scale with
// REAL data through the hardware-NDS data path, using each workload's
// characteristic access pattern (row batches, column bands, tiles, tensor
// bricks), and checks the computed result against direct in-memory
// computation. This is the correctness counterpart of the timed Figure 10
// harness.

// funcDevice builds a small data-bearing hardware-NDS system and a space
// holding the given matrix.
func funcDevice(t *testing.T, rows, cols int64, elem int, payload []byte) (*system.System, *stl.View) {
	t.Helper()
	cfg := system.PrototypeConfig(rows*cols*int64(elem), false)
	sys, err := system.New(system.HardwareNDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewSpace(sys, elem, []int64{rows, cols})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NDSWrite(0, v, []int64{0, 0}, []int64{rows, cols}, payload); err != nil {
		t.Fatal(err)
	}
	return sys, v
}

// readMatrix fetches a partition and decodes it as float32.
func readMatrix(t *testing.T, sys *system.System, v *stl.View, coord, sub []int64) *tensor.Matrix {
	t.Helper()
	raw, _, err := sys.NDSRead(0, v, coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	shape, _, err := v.PartitionShape(coord, sub)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tensor.MatrixFromBytes(int(shape[0]), int(shape[1]), raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// columnBandsToMatrix streams a matrix column band by column band (the
// SSSP/KMeans access pattern) and reassembles it.
func columnBandsToMatrix(t *testing.T, sys *system.System, v *stl.View, rows, cols, band int64) *tensor.Matrix {
	t.Helper()
	out := tensor.NewMatrix(int(rows), int(cols))
	for j := int64(0); j*band < cols; j++ {
		m := readMatrix(t, sys, v, []int64{0, j}, []int64{rows, band})
		out.SetSub(0, int(j*band), m)
	}
	return out
}

func TestFunctionalBFS(t *testing.T) {
	const n = 128
	adj, err := datagen.Graph(n, 600, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, n, n, 4, adj.Bytes())
	// Row batches (frontier reads).
	rebuilt := tensor.NewMatrix(n, n)
	for i := int64(0); i*16 < n; i++ {
		rebuilt.SetSub(int(i)*16, 0, readMatrix(t, sys, v, []int64{i, 0}, []int64{16, n}))
	}
	got, err := BFS(rebuilt, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFS(adj, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BFS level[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFunctionalSSSP(t *testing.T) {
	const n = 96
	w, err := datagen.Graph(n, 500, 12)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, n, n, 4, w.Bytes())
	// Column bands (gather-by-destination relaxation).
	rebuilt := columnBandsToMatrix(t, sys, v, n, n, 16)
	got, err := SSSP(rebuilt, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SSSP(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SSSP dist[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFunctionalGEMM(t *testing.T) {
	const n, tile = 96, 32
	a := datagen.Matrix(n, n, 13)
	b := datagen.Matrix(n, n, 14)
	sysA, va := funcDevice(t, n, n, 4, a.Bytes())
	sysB, vb := funcDevice(t, n, n, 4, b.Bytes())
	want, err := tensor.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.NewMatrix(n, n)
	for i := int64(0); i < n/tile; i++ {
		for j := int64(0); j < n/tile; j++ {
			acc := tensor.NewMatrix(tile, tile)
			for k := int64(0); k < n/tile; k++ {
				at := readMatrix(t, sysA, va, []int64{i, k}, []int64{tile, tile})
				bt := readMatrix(t, sysB, vb, []int64{k, j}, []int64{tile, tile})
				if err := tensor.AccumulateMul(acc, at, bt); err != nil {
					t.Fatal(err)
				}
			}
			got.SetSub(int(i)*tile, int(j)*tile, acc)
		}
	}
	if !got.Equal(want, 1e-2) {
		t.Fatal("tiled GEMM through NDS diverges")
	}
}

func TestFunctionalHotspot(t *testing.T) {
	const n = 64
	temp := datagen.Matrix(n, n, 15)
	power := datagen.Matrix(n, n, 16)
	sysT, vt := funcDevice(t, n, n, 4, temp.Bytes())
	sysP, vp := funcDevice(t, n, n, 4, power.Bytes())
	// Stream both grids tile-wise, reassemble, and advance the stencil.
	gt := tensor.NewMatrix(n, n)
	gp := tensor.NewMatrix(n, n)
	for i := int64(0); i < 2; i++ {
		for j := int64(0); j < 2; j++ {
			gt.SetSub(int(i)*32, int(j)*32, readMatrix(t, sysT, vt, []int64{i, j}, []int64{32, 32}))
			gp.SetSub(int(i)*32, int(j)*32, readMatrix(t, sysP, vp, []int64{i, j}, []int64{32, 32}))
		}
	}
	got := tensor.HotspotStep(gt, gp, 0.05)
	want := tensor.HotspotStep(temp, power, 0.05)
	if !got.Equal(want, 1e-4) {
		t.Fatal("Hotspot through NDS diverges")
	}
}

func TestFunctionalKMeans(t *testing.T) {
	const npts, dim = 80, 16
	pts, _, err := datagen.Clustering(npts, dim, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, npts, dim, 4, pts.Bytes())
	// Feature-column bands (the GPU's coalesced access).
	rebuilt := columnBandsToMatrix(t, sys, v, npts, dim, 4)
	_, gotAssign, err := KMeans(rebuilt, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, wantAssign, err := KMeans(pts, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantAssign {
		if gotAssign[i] != wantAssign[i] {
			t.Fatalf("KMeans assignment[%d] differs", i)
		}
	}
}

func TestFunctionalKNN(t *testing.T) {
	const npts, dim = 100, 8
	pts, centres, err := datagen.Clustering(npts, dim, 5, 18)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, npts, dim, 4, pts.Bytes())
	// Row bands (streaming the reference points).
	rebuilt := tensor.NewMatrix(npts, dim)
	for i := int64(0); i*20 < npts; i++ {
		rebuilt.SetSub(int(i)*20, 0, readMatrix(t, sys, v, []int64{i, 0}, []int64{20, dim}))
	}
	query := make([]float32, dim)
	for j := 0; j < dim; j++ {
		query[j] = centres.At(2, j)
	}
	got, err := KNN(rebuilt, query, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := KNN(pts, query, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KNN[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFunctionalPageRank(t *testing.T) {
	const n = 128
	adj, err := datagen.PageRankGraph(n, 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, n, n, 4, adj.Bytes())
	// Shard reads: row band (out-edges) + column band (in-ranks), per the
	// timed model's pattern; reassemble from the row shards.
	rebuilt := tensor.NewMatrix(n, n)
	for i := int64(0); i < 4; i++ {
		rebuilt.SetSub(int(i)*32, 0, readMatrix(t, sys, v, []int64{i, 0}, []int64{32, n}))
	}
	// Exercise the column path too and cross-check a band.
	colBand := readMatrix(t, sys, v, []int64{0, 1}, []int64{n, 32})
	for r := 0; r < n; r++ {
		for c := 0; c < 32; c++ {
			if colBand.At(r, c) != adj.At(r, 32+c) {
				t.Fatal("column band mismatch")
			}
		}
	}
	got, err := PageRank(rebuilt, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PageRank(adj, 0.85, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-6 {
			t.Fatalf("PageRank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFunctionalConv2D(t *testing.T) {
	const n = 64
	img := datagen.Matrix(n, n, 20)
	kernel := datagen.Matrix(3, 3, 21)
	sys, v := funcDevice(t, n, n, 4, img.Bytes())
	rebuilt := tensor.NewMatrix(n, n)
	for i := int64(0); i < 2; i++ {
		for j := int64(0); j < 2; j++ {
			rebuilt.SetSub(int(i)*32, int(j)*32, readMatrix(t, sys, v, []int64{i, j}, []int64{32, 32}))
		}
	}
	got := tensor.Conv2D(rebuilt, kernel)
	want := tensor.Conv2D(img, kernel)
	if !got.Equal(want, 1e-4) {
		t.Fatal("Conv2D through NDS diverges")
	}
}

// funcTensorDevice stores a 3-D tensor in a 3-D-building-block space.
func funcTensorDevice(t *testing.T, d int64, payload []byte) (*system.System, *stl.View) {
	t.Helper()
	cfg := system.PrototypeConfig(d*d*d*4, false)
	cfg.STL.BBOrder = 3
	cfg.STL.BBMultiplier = 1
	sys, err := system.New(system.HardwareNDS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewSpace(sys, 4, []int64{d, d, d})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NDSWrite(0, v, []int64{0, 0, 0}, []int64{d, d, d}, payload); err != nil {
		t.Fatal(err)
	}
	return sys, v
}

func TestFunctionalTTV(t *testing.T) {
	const d, brick = 64, 16
	ts := datagen.Tensor(d, d, d, 22)
	sys, v := funcTensorDevice(t, d, ts.Bytes())
	vec := make([]float32, d)
	for i := range vec {
		vec[i] = float32(i%9) - 4
	}
	// Mode-2 bricks, accumulated.
	acc := tensor.NewMatrix(d, d)
	for kb := int64(0); kb*brick < d; kb++ {
		raw, _, err := sys.NDSRead(0, v, []int64{0, 0, kb}, []int64{d, d, brick})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tensor.Tensor3FromBytes(d, d, brick, raw)
		if err != nil {
			t.Fatal(err)
		}
		part, err := tensor.TTV(sub, vec[kb*brick:(kb+1)*brick], 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range acc.Data {
			acc.Data[i] += part.Data[i]
		}
	}
	want, err := tensor.TTV(ts, vec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Equal(want, 1e-2) {
		t.Fatal("brick TTV through NDS diverges")
	}
}

func TestFunctionalTC(t *testing.T) {
	const d, slab = 64, 16
	ts := datagen.Tensor(d, d, d, 23)
	b := datagen.Matrix(d, 8, 24)
	sys, v := funcTensorDevice(t, d, ts.Bytes())
	want, err := tensor.Contract(ts, b)
	if err != nil {
		t.Fatal(err)
	}
	// Lateral slabs over mode 1, contracted incrementally:
	// C[i,c,k] = sum over slabs of sum_{j in slab} A[i,j,k] * B[j,c].
	acc := tensor.NewTensor3(d, 8, d)
	for jb := int64(0); jb*slab < d; jb++ {
		raw, _, err := sys.NDSRead(0, v, []int64{0, jb, 0}, []int64{d, slab, d})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := tensor.Tensor3FromBytes(d, slab, d, raw)
		if err != nil {
			t.Fatal(err)
		}
		bSub := b.Sub(int(jb)*slab, 0, slab, 8)
		part, err := tensor.Contract(sub, bSub)
		if err != nil {
			t.Fatal(err)
		}
		for i := range acc.Data {
			acc.Data[i] += part.Data[i]
		}
	}
	if !acc.Equal(want, 1e-2) {
		t.Fatal("slab TC through NDS diverges")
	}
}

// TestFunctionalSharedDataset: the BFS/SSSP pair shares one stored dataset
// through different views and block sizes, the elasticity claim of §6.2.
func TestFunctionalSharedDataset(t *testing.T) {
	const n = 96
	w, err := datagen.Graph(n, 400, 25)
	if err != nil {
		t.Fatal(err)
	}
	sys, v := funcDevice(t, n, n, 4, w.Bytes())

	// BFS consumes row batches...
	rows := tensor.NewMatrix(n, n)
	for i := int64(0); i*24 < n; i++ {
		rows.SetSub(int(i)*24, 0, readMatrix(t, sys, v, []int64{i, 0}, []int64{24, n}))
	}
	// ...SSSP consumes column bands of the *same* space.
	cols := columnBandsToMatrix(t, sys, v, n, n, 24)
	if !bytes.Equal(rows.Bytes(), cols.Bytes()) {
		t.Fatal("row and column consumers disagree about the shared dataset")
	}
	lv, err := BFS(rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SSSP(cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lv {
		if (lv[i] < 0) != math.IsInf(float64(dist[i]), 1) {
			t.Fatalf("vertex %d: BFS and SSSP disagree on reachability", i)
		}
	}
}
