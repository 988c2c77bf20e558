// Package accel models the hardware accelerator of the evaluation platform
// (an RTX 2080-class GPU with both CUDA cores and Tensor Cores). Compute
// kernels are characterized by effective data-processing-rate curves versus
// working-set dimension, reproducing Figure 3's shape: Tensor-Core GEMM peaks
// at 512x512 tiles, CUDA-core GEMM at 2048x2048, and both collapse for tiny
// inputs where launch overhead and under-occupancy dominate.
package accel

import (
	"fmt"
	"math"
	"sort"

	"nds/internal/sim"
)

// RatePoint anchors a processing-rate curve: at working-set dimension Dim
// (elements per side), the kernel consumes input at Rate bytes/second.
type RatePoint struct {
	Dim  int64
	Rate float64
}

// RateCurve interpolates effective processing rate between anchors in
// log-log space (rates span decades in Figure 3).
type RateCurve struct {
	Name   string
	Points []RatePoint
}

// NewRateCurve sorts and validates the anchors.
func NewRateCurve(name string, pts []RatePoint) (RateCurve, error) {
	if len(pts) < 2 {
		return RateCurve{}, fmt.Errorf("accel: curve %q needs at least two points", name)
	}
	sorted := append([]RatePoint(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Dim < sorted[j].Dim })
	for i, p := range sorted {
		if p.Dim <= 0 || p.Rate <= 0 {
			return RateCurve{}, fmt.Errorf("accel: curve %q point %d not positive", name, i)
		}
		if i > 0 && p.Dim == sorted[i-1].Dim {
			return RateCurve{}, fmt.Errorf("accel: curve %q has duplicate dim %d", name, p.Dim)
		}
	}
	return RateCurve{Name: name, Points: sorted}, nil
}

// Rate returns the interpolated processing rate at dimension dim, clamped to
// the curve's end anchors.
func (c RateCurve) Rate(dim int64) float64 {
	pts := c.Points
	if dim <= pts[0].Dim {
		return pts[0].Rate
	}
	if dim >= pts[len(pts)-1].Dim {
		return pts[len(pts)-1].Rate
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Dim >= dim })
	a, b := pts[i-1], pts[i]
	t := (math.Log(float64(dim)) - math.Log(float64(a.Dim))) /
		(math.Log(float64(b.Dim)) - math.Log(float64(a.Dim)))
	return math.Exp(math.Log(a.Rate)*(1-t) + math.Log(b.Rate)*t)
}

// PeakDim returns the anchor dimension with the highest rate — the kernel's
// optimal working-set size (Figure 3 / challenge [C2]).
func (c RateCurve) PeakDim() int64 {
	best := c.Points[0]
	for _, p := range c.Points[1:] {
		if p.Rate > best.Rate {
			best = p
		}
	}
	return best.Dim
}

// Duration is the kernel time to consume n input bytes at working-set
// dimension dim.
func (c RateCurve) Duration(n int64, dim int64) sim.Time {
	return sim.TransferTime(n, c.Rate(dim))
}

// CUDACores is the calibrated CUDA-core GEMM curve of Figure 3: the rate
// peaks around 2048x2048 tiles.
func CUDACores() RateCurve {
	c, _ := NewRateCurve("cuda-cores", []RatePoint{
		{32, 0.10e9}, {64, 0.4e9}, {128, 1.5e9}, {256, 5e9}, {512, 12e9},
		{1024, 20e9}, {2048, 24e9}, {4096, 22e9}, {8192, 20e9}, {16384, 18e9},
	})
	return c
}

// TensorCores is the calibrated Tensor-Core GEMM curve of Figure 3: far
// higher throughput, peaking around 512x512 tiles.
func TensorCores() RateCurve {
	c, _ := NewRateCurve("tensor-cores", []RatePoint{
		{32, 0.3e9}, {64, 2e9}, {128, 20e9}, {256, 80e9}, {512, 120e9},
		{1024, 110e9}, {2048, 95e9}, {4096, 80e9}, {8192, 70e9}, {16384, 60e9},
	})
	return c
}

// VectorKernel is a generic CUDA-core streaming kernel (BFS, KMeans, and the
// other 1-D-kernel workloads of Table 1): throughput saturates quickly with
// input size.
func VectorKernel() RateCurve {
	c, _ := NewRateCurve("vector", []RatePoint{
		{1024, 2e9}, {4096, 8e9}, {65536, 14e9}, {1 << 20, 15e9},
	})
	return c
}

// GPU is the accelerator's host-to-device copy path (the paper's
// applications pipeline copies against kernels; the kernels' time is the
// rate curves').
type GPU struct {
	copyBW  float64
	copyOvh sim.Time
}

// NewGPU builds an RTX 2080-class accelerator's copy path: 12 GB/s effective
// PCIe 3.0 x16 plus a fixed per-copy overhead.
func NewGPU() *GPU {
	return &GPU{copyBW: 12e9, copyOvh: 10 * sim.Microsecond}
}

// CopyDuration is the host-to-device copy time for n bytes.
func (g *GPU) CopyDuration(n int64) sim.Time {
	return g.copyOvh + sim.TransferTime(n, g.copyBW)
}
