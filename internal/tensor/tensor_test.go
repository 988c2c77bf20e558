package tensor

import (
	"math"
	"testing"
)

func TestMatMulIdentity(t *testing.T) {
	a := RandMatrix(8, 8, 1)
	id := NewMatrix(8, 8)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	got, err := MatMul(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(a, 1e-6) {
		t.Fatal("A x I != A")
	}
	if _, err := MatMul(a, NewMatrix(7, 8)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float32{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float32{7, 8, 9, 10, 11, 12}}
	got, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if got.Data[i] != v {
			t.Fatalf("element %d = %v, want %v", i, got.Data[i], v)
		}
	}
}

// TestBlockedMatMulMatchesReference: tiling with AccumulateMul must agree
// with the straight triple loop — the correctness core of the GEMM example.
func TestBlockedMatMulMatchesReference(t *testing.T) {
	const n, tile = 32, 8
	a := RandMatrix(n, n, 2)
	b := RandMatrix(n, n, 3)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := NewMatrix(n, n)
	for i := 0; i < n; i += tile {
		for j := 0; j < n; j += tile {
			acc := NewMatrix(tile, tile)
			for k := 0; k < n; k += tile {
				if err := AccumulateMul(acc, a.Sub(i, k, tile, tile), b.Sub(k, j, tile, tile)); err != nil {
					t.Fatal(err)
				}
			}
			got.SetSub(i, j, acc)
		}
	}
	if !got.Equal(want, 1e-3) {
		t.Fatal("blocked GEMM diverges from reference")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	m := RandMatrix(7, 11, 4)
	got, err := MatrixFromBytes(7, 11, m.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m, 0) {
		t.Fatal("matrix byte round-trip mismatch")
	}
	if _, err := MatrixFromBytes(7, 11, make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}

	ts := RandTensor3(3, 4, 5, 5)
	got3, err := Tensor3FromBytes(3, 4, 5, ts.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got3.Equal(ts, 0) {
		t.Fatal("tensor byte round-trip mismatch")
	}
}

func TestSubSetSubRoundTrip(t *testing.T) {
	m := RandMatrix(16, 16, 6)
	tile := m.Sub(4, 8, 4, 4)
	o := NewMatrix(16, 16)
	o.SetSub(4, 8, tile)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if o.At(4+r, 8+c) != m.At(4+r, 8+c) {
				t.Fatal("Sub/SetSub mismatch")
			}
		}
	}
}

// TestTTVAgainstDirect checks every TTV mode against a direct summation.
func TestTTVAgainstDirect(t *testing.T) {
	ts := RandTensor3(4, 5, 6, 7)
	dims := [3]int{4, 5, 6}
	for mode := 0; mode < 3; mode++ {
		v := make([]float32, dims[mode])
		for i := range v {
			v[i] = float32(i + 1)
		}
		got, err := TTV(ts, v, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			for j := 0; j < 5; j++ {
				for k := 0; k < 6; k++ {
					var want float64
					var g float32
					switch mode {
					case 0:
						if i != 0 {
							continue
						}
						for x := 0; x < 4; x++ {
							want += float64(v[x] * ts.At(x, j, k))
						}
						g = got.At(j, k)
					case 1:
						if j != 0 {
							continue
						}
						for x := 0; x < 5; x++ {
							want += float64(v[x] * ts.At(i, x, k))
						}
						g = got.At(i, k)
					case 2:
						if k != 0 {
							continue
						}
						for x := 0; x < 6; x++ {
							want += float64(v[x] * ts.At(i, j, x))
						}
						g = got.At(i, j)
					}
					if math.Abs(want-float64(g)) > 1e-3 {
						t.Fatalf("mode %d: element (%d,%d,%d) = %v, want %v", mode, i, j, k, g, want)
					}
				}
			}
		}
	}
	if _, err := TTV(ts, []float32{1}, 0); err == nil {
		t.Fatal("bad vector length accepted")
	}
	if _, err := TTV(ts, nil, 5); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestContractReducesToMatMul(t *testing.T) {
	// With D3 = 1, Contract(t, b) is exactly A x B on the frontal slice.
	ts := NewTensor3(3, 4, 1)
	a := RandMatrix(3, 4, 8)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			ts.Set(i, j, 0, a.At(i, j))
		}
	}
	b := RandMatrix(4, 5, 9)
	got, err := Contract(ts, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for c := 0; c < 5; c++ {
			if math.Abs(float64(got.At(i, c, 0)-want.At(i, c))) > 1e-4 {
				t.Fatalf("contract (%d,%d) = %v, want %v", i, c, got.At(i, c, 0), want.At(i, c))
			}
		}
	}
	if _, err := Contract(ts, NewMatrix(3, 3)); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestHotspotConservesAtEquilibrium(t *testing.T) {
	// Uniform temperature with zero power is a fixed point.
	temp := NewMatrix(8, 8)
	for i := range temp.Data {
		temp.Data[i] = 42
	}
	power := NewMatrix(8, 8)
	next := HotspotStep(temp, power, 0.1)
	if !next.Equal(temp, 1e-6) {
		t.Fatal("uniform zero-power grid should be a fixed point")
	}
	// A hot cell diffuses: its neighbours warm up, it cools down.
	temp.Set(4, 4, 100)
	next = HotspotStep(temp, power, 0.1)
	if next.At(4, 4) >= 100 {
		t.Fatal("hot cell should cool")
	}
	if next.At(4, 5) <= 42 {
		t.Fatal("neighbour should warm")
	}
}

func TestConv2DDeltaKernel(t *testing.T) {
	in := RandMatrix(10, 10, 12)
	delta := NewMatrix(3, 3)
	delta.Set(1, 1, 1)
	out := Conv2D(in, delta)
	if !out.Equal(in, 1e-6) {
		t.Fatal("convolution with a delta kernel must be identity")
	}
	// A shifted delta translates the image.
	shift := NewMatrix(3, 3)
	shift.Set(1, 2, 1) // kernel offset (0, +1)
	out = Conv2D(in, shift)
	if out.At(5, 5) != in.At(5, 6) {
		t.Fatalf("shifted delta: got %v, want %v", out.At(5, 5), in.At(5, 6))
	}
}
