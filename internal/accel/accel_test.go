package accel

import (
	"testing"

	"nds/internal/sim"
)

func TestCurveValidation(t *testing.T) {
	if _, err := NewRateCurve("x", []RatePoint{{1, 1}}); err == nil {
		t.Error("single-point curve accepted")
	}
	if _, err := NewRateCurve("x", []RatePoint{{1, 1}, {1, 2}}); err == nil {
		t.Error("duplicate dim accepted")
	}
	if _, err := NewRateCurve("x", []RatePoint{{0, 1}, {2, 2}}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewRateCurve("x", []RatePoint{{1, -1}, {2, 2}}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestInterpolationMonotoneSegments(t *testing.T) {
	c, err := NewRateCurve("t", []RatePoint{{100, 1e9}, {1000, 10e9}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(100); got != 1e9 {
		t.Fatalf("anchor rate = %v", got)
	}
	if got := c.Rate(10); got != 1e9 {
		t.Fatalf("below-range rate should clamp: %v", got)
	}
	if got := c.Rate(10000); got != 10e9 {
		t.Fatalf("above-range rate should clamp: %v", got)
	}
	mid := c.Rate(316) // ~ geometric midpoint
	if mid < 2.9e9 || mid > 3.5e9 {
		t.Fatalf("log-log midpoint = %v, want ~3.16e9", mid)
	}
}

// TestFigure3Optima pins the crossover structure of Figure 3: Tensor Cores
// peak at 512, CUDA cores at 2048, and the Tensor-Core rate dominates the
// CUDA-core rate at every common dimension.
func TestFigure3Optima(t *testing.T) {
	tcu, cuda := TensorCores(), CUDACores()
	if got := tcu.PeakDim(); got != 512 {
		t.Errorf("Tensor-Core peak at %d, want 512", got)
	}
	if got := cuda.PeakDim(); got != 2048 {
		t.Errorf("CUDA-core peak at %d, want 2048", got)
	}
	for _, d := range []int64{32, 128, 512, 2048, 8192, 16384} {
		if tcu.Rate(d) <= cuda.Rate(d) {
			t.Errorf("at dim %d Tensor Cores (%.1e) should beat CUDA cores (%.1e)",
				d, tcu.Rate(d), cuda.Rate(d))
		}
	}
}

func TestKernelDuration(t *testing.T) {
	c, _ := NewRateCurve("t", []RatePoint{{100, 1e9}, {1000, 1e9}})
	if d := c.Duration(1e9, 500); d != sim.Second {
		t.Fatalf("duration = %v, want 1s", d)
	}
}

func TestGPUCopyDuration(t *testing.T) {
	if d := CopyDuration(0); d != 10*sim.Microsecond {
		t.Fatalf("empty copy = %v, want the 10us overhead", d)
	}
	if d := CopyDuration(12e9) - CopyDuration(0); d != sim.Second {
		t.Fatalf("12 GB copies in %v beyond the overhead, want 1s", d)
	}
}
