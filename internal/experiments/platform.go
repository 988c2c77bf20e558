// Package experiments contains one harness per table/figure of the paper's
// evaluation (§7), each regenerating the corresponding rows/series on the
// simulated platform, and the report that prints them all (Report).
// Absolute numbers come from the calibrated models; the shapes — who wins,
// by what factor, where the crossovers fall — are the reproduction targets.
package experiments

import (
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/workloads"
)

// Platform is the evaluation platform the figures measure
// (workloads.Platform), built at the paper's prototype configuration.
type Platform struct{ *workloads.Platform }

// NewPlatform builds the three configurations for a dataset of the given
// size. Phantom devices are used: timing and state are exact, page contents
// are not stored.
func NewPlatform(datasetBytes int64) (*Platform, error) {
	p, err := workloads.NewPlatform(system.PrototypeConfig(datasetBytes, true))
	if err != nil {
		return nil, err
	}
	return &Platform{p}, nil
}

// Matrix2D is a square row-major matrix of 8-byte elements resident on all
// three systems: written row-major into the baseline SSD's linear space and
// as an (N,N) space on the NDS systems.
type Matrix2D struct {
	N        int64
	ElemSize int64

	SoftView *stl.View
	HardView *stl.View
}

// Bytes is the matrix size in bytes.
func (m *Matrix2D) Bytes() int64 { return m.N * m.N * m.ElemSize }

// RowBytes is one row in bytes.
func (m *Matrix2D) RowBytes() int64 { return m.N * m.ElemSize }

// LoadMatrix populates all three systems with an NxN matrix of 8-byte
// elements (setup work; the loaders quiesce the timelines afterwards, so
// measurements start from a quiet platform).
func (p *Platform) LoadMatrix(n int64) (*Matrix2D, error) {
	m := &Matrix2D{N: n, ElemSize: 8}
	if err := workloads.LoadLinear(p.Baseline, m.Bytes()); err != nil {
		return nil, err
	}
	var err error
	if m.SoftView, err = workloads.LoadBands(p.Software, 8, []int64{n, n}); err != nil {
		return nil, err
	}
	if m.HardView, err = workloads.LoadBands(p.Hardware, 8, []int64{n, n}); err != nil {
		return nil, err
	}
	return m, nil
}

// mbps converts bytes over duration to MB/s.
func mbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
