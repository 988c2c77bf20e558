package experiments

import (
	"fmt"

	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/workloads"
)

// Sensitivity sweeps beyond the paper's fixed platform: how the NDS
// advantage scales with channel count ([C1]: optimal layouts differ per
// device — NDS adapts automatically), how the building-block multiplier
// trades row/column/tile access efficiency (the Equation 2 sizing decision),
// and what the balanced blocks and the §4.2 placement policy each buy.

// SweepPoint is one x-position of a sensitivity sweep.
type SweepPoint struct {
	X          int64
	BaselineMB float64
	HardwareMB float64
	RowMB      float64 // block-multiplier and ablation sweeps only
	ColMB      float64
	TileMB     float64
}

// SweepChannels measures a k x k tile fetch (k = n/8) on devices with
// varying channel counts: the baseline's row-gather barely improves (it is
// request-bound), while NDS rides the added internal parallelism until the
// host link saturates.
func SweepChannels(n int64, channels []int) ([]SweepPoint, error) {
	var out []SweepPoint
	k := n / 8
	for _, ch := range channels {
		cfg := system.PrototypeConfig(n*n*8, true)
		cfg.Geometry.Channels = ch
		// Keep raw capacity comparable as channel count changes.
		cfg.Geometry.BlocksPerBank = cfg.Geometry.BlocksPerBank * 32 / ch
		if cfg.Geometry.BlocksPerBank < 4 {
			cfg.Geometry.BlocksPerBank = 4
		}

		base, err := system.New(system.Baseline, cfg)
		if err != nil {
			return nil, err
		}
		if err := workloads.LoadLinear(base, n*n*8); err != nil {
			return nil, err
		}
		var runs []system.Run
		for r := int64(0); r < k; r++ {
			runs = append(runs, system.Run{Off: r * n * 8, Len: k * 8})
		}
		_, st, err := base.BaselineRead(0, runs, true, 1)
		base.Close()
		if err != nil {
			return nil, err
		}
		pt := SweepPoint{X: int64(ch), BaselineMB: mbps(st.Bytes, st.Done)}

		hw, err := system.New(system.HardwareNDS, cfg)
		if err != nil {
			return nil, err
		}
		v, err := workloads.LoadBands(hw, 8, []int64{n, n})
		if err != nil {
			return nil, err
		}
		_, ost, err := hw.NDSRead(0, v, []int64{1, 1}, []int64{k, k})
		hw.Close()
		if err != nil {
			return nil, err
		}
		pt.HardwareMB = mbps(ost.Bytes, ost.Done)
		out = append(out, pt)
	}
	return out, nil
}

// SweepBlockMultiplier measures row-band, column-band, and tile fetches
// through hardware NDS with building blocks scaled 1x..8x beyond the
// Equation 2 minimum, showing why the prototype's 2x is a sweet spot.
func SweepBlockMultiplier(n int64, mults []int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, mult := range mults {
		pt, err := readShapes(n, func(c *stl.Config) { c.BBMultiplier = mult })
		if err != nil {
			return nil, fmt.Errorf("experiments: multiplier %d: %w", mult, err)
		}
		pt.X = int64(mult)
		out = append(out, pt)
	}
	return out, nil
}

// ablations are the layouts SweepAblations compares: the §4.2 channel/bank
// policy with Equation 2's balanced blocks (the prototype config), the policy
// with 1-D row-shaped blocks, and naive placement of each block on one die.
var ablations = []struct {
	layout string
	mutate func(*stl.Config)
}{
	{"policy, 2-D blocks", func(*stl.Config) {}},
	{"policy, 1-D blocks", func(c *stl.Config) { c.BBOrder = 1 }},
	{"one die per block", func(c *stl.Config) { c.NaiveAllocation = true }},
}

// SweepAblations measures the row band, column band and tile of
// SweepBlockMultiplier on each layout of ablations, in order (X is unset).
func SweepAblations(n int64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, a := range ablations {
		pt, err := readShapes(n, a.mutate)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", a.layout, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// readShapes loads an n x n matrix of doubles in building-block row bands on
// hardware NDS at the prototype config as mutate changes it, and measures an
// n/8-row band, an n/8-column band and an n/4 x n/4 tile, in that order, each
// on idle timelines.
func readShapes(n int64, mutate func(*stl.Config)) (SweepPoint, error) {
	cfg := system.PrototypeConfig(n*n*8, true)
	mutate(&cfg.STL)
	hw, err := system.New(system.HardwareNDS, cfg)
	if err != nil {
		return SweepPoint{}, err
	}
	defer hw.Close()
	v, err := workloads.LoadBands(hw, 8, []int64{n, n})
	if err != nil {
		return SweepPoint{}, err
	}
	if bb := v.Space().BlockDims()[0]; bb > n {
		return SweepPoint{}, fmt.Errorf("blocks (%d) exceed the matrix (%d)", bb, n)
	}
	shapes := [][2][]int64{{{1, 0}, {n / 8, n}}, {{0, 1}, {n, n / 8}}, {{1, 1}, {n / 4, n / 4}}}
	var mb [3]float64
	for i, sh := range shapes {
		hw.ResetTimelines()
		_, st, err := hw.NDSRead(0, v, sh[0], sh[1])
		if err != nil {
			return SweepPoint{}, err
		}
		mb[i] = mbps(st.Bytes, st.Done)
	}
	return SweepPoint{RowMB: mb[0], ColMB: mb[1], TileMB: mb[2]}, nil
}
