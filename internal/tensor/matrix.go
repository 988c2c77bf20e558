// Package tensor provides the dense matrix/tensor containers and reference
// kernels used by the functional (real-compute) forms of the Table 1
// workloads and by the examples: blocked matrix multiplication, stencils,
// convolution, and 3-D tensor operations, plus byte-level encoding helpers
// for moving values through the NDS data path.
package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix (the paper's kernels run fp32).
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// RandMatrix fills a matrix with deterministic pseudo-random values.
func RandMatrix(rows, cols int, seed int64) *Matrix {
	m := NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at (r, c).
func (m *Matrix) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Sub copies the tile [r0,r0+h) x [c0,c0+w) into a new matrix.
func (m *Matrix) Sub(r0, c0, h, w int) *Matrix {
	out := NewMatrix(h, w)
	for r := 0; r < h; r++ {
		copy(out.Data[r*w:(r+1)*w], m.Data[(r0+r)*m.Cols+c0:(r0+r)*m.Cols+c0+w])
	}
	return out
}

// SetSub writes tile t at (r0, c0).
func (m *Matrix) SetSub(r0, c0 int, t *Matrix) {
	for r := 0; r < t.Rows; r++ {
		copy(m.Data[(r0+r)*m.Cols+c0:(r0+r)*m.Cols+c0+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
	}
}

// MatMul computes a x b with the straightforward triple loop (the reference
// kernel other implementations are checked against).
func MatMul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("tensor: matmul shape mismatch %dx%d x %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
			oRow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j := range bRow {
				oRow[j] += av * bRow[j]
			}
		}
	}
	return out, nil
}

// AccumulateMul adds a x b into out (the inner step of blocked GEMM).
func AccumulateMul(out, a, b *Matrix) error {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		return fmt.Errorf("tensor: accumulate-mul shape mismatch")
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
			oRow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j := range bRow {
				oRow[j] += av * bRow[j]
			}
		}
	}
	return nil
}

// Equal reports element-wise equality within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(float64(m.Data[i]-o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// Bytes encodes the matrix row-major as little-endian float32.
func (m *Matrix) Bytes() []byte {
	out := make([]byte, 4*len(m.Data))
	for i, v := range m.Data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// MatrixFromBytes decodes a rows x cols matrix from little-endian float32.
func MatrixFromBytes(rows, cols int, b []byte) (*Matrix, error) {
	if len(b) != rows*cols*4 {
		return nil, fmt.Errorf("tensor: %d bytes cannot hold %dx%d float32", len(b), rows, cols)
	}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return m, nil
}
