// Package experiments contains one harness per table/figure of the paper's
// evaluation (§7), each regenerating the corresponding rows/series on the
// simulated platform, and the report that prints them all (Report).
// Absolute numbers come from the calibrated models; the shapes — who wins,
// by what factor, where the crossovers fall — are the reproduction targets.
package experiments

import (
	"fmt"

	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
)

// Platform bundles one instance of each evaluated configuration over
// identically-sized devices.
type Platform struct {
	Baseline *system.System
	Software *system.System
	Hardware *system.System
}

// NewPlatform builds the three configurations for a dataset of the given
// size. Phantom devices are used: timing and state are exact, page contents
// are not stored.
func NewPlatform(datasetBytes int64) (*Platform, error) {
	cfg := system.PrototypeConfig(datasetBytes, true)
	p := &Platform{}
	var err error
	if p.Baseline, err = system.New(system.Baseline, cfg); err != nil {
		return nil, err
	}
	if p.Software, err = system.New(system.SoftwareNDS, cfg); err != nil {
		return nil, err
	}
	if p.Hardware, err = system.New(system.HardwareNDS, cfg); err != nil {
		return nil, err
	}
	if built != nil {
		built(p)
	}
	return p, nil
}

// built, when a test sets it, is shown every platform NewPlatform builds.
var built func(*Platform)

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
// elements (setup work; timelines are reset afterwards so measurements start
// from a quiet platform).
func (p *Platform) LoadMatrix(n int64) (*Matrix2D, error) {
	m := &Matrix2D{N: n, ElemSize: 8}
	ps := int64(p.Baseline.Cfg.Geometry.PageSize)
	// Baseline: bulk row-major load through the FTL.
	pages := m.Bytes() / ps
	const batch = 4096
	for lpn := int64(0); lpn < pages; lpn += batch {
		if _, err := p.Baseline.FTL.WritePages(0, lpn, nil, min(batch, pages-lpn)); err != nil {
			return nil, fmt.Errorf("baseline load: %w", err)
		}
	}
	var err error
	if m.SoftView, err = loadSquare(p.Software, n); err != nil {
		return nil, err
	}
	if m.HardView, err = loadSquare(p.Hardware, n); err != nil {
		return nil, err
	}
	p.ResetTimelines()
	return m, nil
}

// loadSquare writes an n x n matrix of doubles into a new (n,n) space of an
// NDS system, one building-block row per write, and returns its view.
func loadSquare(sys *system.System, n int64) (*stl.View, error) {
	sp, err := sys.STL.CreateSpace(8, []int64{n, n})
	if err != nil {
		return nil, err
	}
	v, err := stl.NewView(sp, []int64{n, n})
	if err != nil {
		return nil, err
	}
	band := sp.BlockDims()[0]
	for i := int64(0); i*band < n; i++ {
		if _, _, err := sys.STL.WritePartition(0, v, []int64{i, 0}, []int64{band, n}, nil); err != nil {
			return nil, fmt.Errorf("%v load: %w", sys.Kind, err)
		}
	}
	return v, nil
}

// ResetTimelines quiesces all three systems.
func (p *Platform) ResetTimelines() {
	p.Baseline.ResetTimelines()
	p.Software.ResetTimelines()
	p.Hardware.ResetTimelines()
}

// mbps converts bytes over duration to MB/s.
func mbps(bytes int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
