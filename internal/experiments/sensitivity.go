package experiments

import (
	"fmt"

	"nds/internal/system"
	"nds/internal/workloads"
)

// Sensitivity sweeps beyond the paper's fixed platform: how the NDS
// advantage scales with channel count ([C1]: optimal layouts differ per
// device — NDS adapts automatically) and how the building-block multiplier
// trades row/column/tile access efficiency (the Equation 2 sizing decision).

// SweepPoint is one x-position of a sensitivity sweep.
type SweepPoint struct {
	X          int64
	BaselineMB float64
	HardwareMB float64
	RowMB      float64 // block-multiplier sweep only
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
		cfg := system.PrototypeConfig(n*n*8, true)
		cfg.STL.BBMultiplier = mult
		hw, err := system.New(system.HardwareNDS, cfg)
		if err != nil {
			return nil, err
		}
		v, err := workloads.LoadBands(hw, 8, []int64{n, n})
		if err != nil {
			return nil, err
		}
		if bb := v.Space().BlockDims()[0]; bb > n {
			return nil, fmt.Errorf("experiments: multiplier %d makes blocks (%d) exceed the matrix (%d)", mult, bb, n)
		}
		measure := func(coord, sub []int64) (float64, error) {
			hw.ResetTimelines()
			_, st, err := hw.NDSRead(0, v, coord, sub)
			if err != nil {
				return 0, err
			}
			return mbps(st.Bytes, st.Done), nil
		}
		pt := SweepPoint{X: int64(mult)}
		if pt.RowMB, err = measure([]int64{1, 0}, []int64{n / 8, n}); err != nil {
			return nil, err
		}
		if pt.ColMB, err = measure([]int64{0, 1}, []int64{n, n / 8}); err != nil {
			return nil, err
		}
		if pt.TileMB, err = measure([]int64{1, 1}, []int64{n / 4, n / 4}); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}
