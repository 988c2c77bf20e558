package nds_test

import (
	"os/exec"
	"testing"

	"nds"
	"nds/internal/datagen"
	"nds/internal/tensor"
	"nds/internal/workloads"
)

// TestBenchModuleVets runs `go vet ./...` inside bench/, which is a module of
// its own: `go test ./...` here does not reach it, and a PR may not edit it.
// So a rename that breaks the benchmark's compile fails tier-1, and not only
// CI's "Benchmark module" step.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the bench module with the go toolchain")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

// TestBlockedGEMMThroughNDS runs the paper's flagship workload end to end at
// small scale: two matrices are produced into NDS spaces, the consumer
// fetches 2-D tiles by coordinate, multiplies them with the reference
// kernel, and the result must equal the direct multiplication. This
// exercises space creation, the producer/consumer views, the translator,
// allocation, and assembly as one pipeline.
func TestBlockedGEMMThroughNDS(t *testing.T) {
	const n, tile = 128, 32
	a := datagen.Matrix(n, n, 21)
	b := datagen.Matrix(n, n, 22)
	want, err := tensor.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []nds.Mode{nds.ModeSoftware, nds.ModeHardware} {
		dev, err := nds.Open(nds.Options{Mode: mode, CapacityHint: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		store := func(m *tensor.Matrix) *nds.Space {
			id, err := dev.CreateSpace(4, []int64{n, n})
			if err != nil {
				t.Fatal(err)
			}
			sp, err := dev.OpenSpace(id, []int64{n, n})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Write([]int64{0, 0}, []int64{n, n}, m.Bytes()); err != nil {
				t.Fatal(err)
			}
			return sp
		}
		sa, sb := store(a), store(b)

		fetch := func(sp *nds.Space, i, j int64) *tensor.Matrix {
			raw, _, err := sp.Read([]int64{i, j}, []int64{tile, tile})
			if err != nil {
				t.Fatal(err)
			}
			m, err := tensor.MatrixFromBytes(tile, tile, raw)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}

		got := tensor.NewMatrix(n, n)
		for i := int64(0); i < n/tile; i++ {
			for j := int64(0); j < n/tile; j++ {
				acc := tensor.NewMatrix(tile, tile)
				for k := int64(0); k < n/tile; k++ {
					if err := tensor.AccumulateMul(acc, fetch(sa, i, k), fetch(sb, k, j)); err != nil {
						t.Fatal(err)
					}
				}
				got.SetSub(int(i)*tile, int(j)*tile, acc)
			}
		}
		if !got.Equal(want, 1e-2) {
			t.Fatalf("%v: blocked GEMM through NDS diverges from reference", mode)
		}
		if dev.Now() <= 0 {
			t.Fatalf("%v: no simulated time elapsed", mode)
		}
	}
}

// TestGraphThroughNDS stores an adjacency matrix in an NDS space, streams it
// back through a reshaped row-batch view, and checks BFS sees the identical
// graph.
func TestGraphThroughNDS(t *testing.T) {
	const n = 96
	adj, err := datagen.Graph(n, 400, 31)
	if err != nil {
		t.Fatal(err)
	}
	wantLv, err := workloads.BFS(adj, 0)
	if err != nil {
		t.Fatal(err)
	}

	dev, err := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dev.CreateSpace(4, []int64{n, n})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dev.OpenSpace(id, []int64{n, n})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]int64{0, 0}, []int64{n, n}, adj.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Rebuild the adjacency row-batch by row-batch through NDS.
	rebuilt := tensor.NewMatrix(n, n)
	const batch = 16
	for i := int64(0); i*batch < n; i++ {
		raw, _, err := sp.Read([]int64{i, 0}, []int64{batch, n})
		if err != nil {
			t.Fatal(err)
		}
		m, err := tensor.MatrixFromBytes(batch, n, raw)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt.SetSub(int(i)*batch, 0, m)
	}
	gotLv, err := workloads.BFS(rebuilt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range wantLv {
		if gotLv[v] != wantLv[v] {
			t.Fatalf("vertex %d: level %d through NDS, want %d", v, gotLv[v], wantLv[v])
		}
	}
}

// TestTensorBricksThroughNDS stores a 3-D tensor in a 3-D-building-block
// space and fetches mode-2 bricks, checking TTV over the bricks equals TTV
// over the whole tensor.
func TestTensorBricksThroughNDS(t *testing.T) {
	const d, brick = 64, 16
	ts := datagen.Tensor(d, d, d, 41)
	v := make([]float32, brick)
	for i := range v {
		v[i] = float32(i%5) - 2
	}

	dev, err := nds.Open(nds.Options{Mode: nds.ModeHardware, CapacityHint: 8 << 20, BlockOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, err := dev.CreateSpace(4, []int64{d, d, d})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := dev.OpenSpace(id, []int64{d, d, d})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Write([]int64{0, 0, 0}, []int64{d, d, d}, ts.Bytes()); err != nil {
		t.Fatal(err)
	}

	// TTV along mode 2 restricted to the brick at k-offset 2*brick.
	raw, _, err := sp.Read([]int64{0, 0, 2}, []int64{d, d, brick})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tensor.Tensor3FromBytes(d, d, brick, raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tensor.TTV(sub, v, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same contraction on the in-memory tensor.
	want := tensor.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var s float32
			for k := 0; k < brick; k++ {
				s += v[k] * ts.At(i, j, 2*brick+k)
			}
			want.Set(i, j, s)
		}
	}
	if !got.Equal(want, 1e-3) {
		t.Fatal("mode-2 brick TTV through NDS diverges from reference")
	}
}
