package experiments

import (
	"fmt"

	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
	"nds/internal/workloads"
)

// Figure 9: effective bandwidth of fetching/structuring data with different
// dimensionalities, for the baseline SSD, software NDS, and hardware NDS
// (§7.1). The microbenchmark matrix is NxN doubles; the paper uses N=32768
// on a 32-channel, 4 KB-page device with 256x256 building blocks.

// Fig9Point is one x-position of a Figure 9 panel.
type Fig9Point struct {
	Label       string
	BaselineMB  float64 // row-store baseline
	BaselineAlt float64 // column-store baseline (panel b only, else 0)
	SoftwareMB  float64
	HardwareMB  float64
}

// bbMultiples yields the paper's sweep expressed in building-block
// multiples: 512..4096 elements with 256-wide blocks is {2,4,8,16} blocks.
func bbMultiples(m *Matrix2D, factors []int64) []int64 {
	bb := m.SoftView.Space().BlockDims()[0]
	var out []int64
	for _, f := range factors {
		v := f * bb
		if v >= 1 && v <= m.N {
			out = append(out, v)
		}
	}
	return out
}

// Figure9A measures row-block fetches: blocks of h rows x N columns, for h
// in building-block multiples (the paper sweeps 512..4096 of 32768).
func Figure9A(p *Platform, m *Matrix2D) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, h := range bbMultiples(m, []int64{2, 4, 8, 16}) {
		pt := Fig9Point{Label: fmt.Sprintf("%dx%d", h, m.N)}
		p.ResetTimelines()

		// Baseline: each row block is contiguous in LBA space — one command.
		var runs []system.Run
		for r := int64(0); r+h <= m.N; r += h {
			runs = append(runs, system.Run{Off: r * m.RowBytes(), Len: h * m.RowBytes()})
		}
		_, st, err := p.Baseline.BaselineRead(0, runs, false, 1)
		if err != nil {
			return nil, err
		}
		pt.BaselineMB = mbps(st.Bytes, st.Done)

		if pt.SoftwareMB, pt.HardwareMB, err = ndsSweep(p, m, []int64{h, m.N}); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// ndsSweep reads the whole matrix in partitions of the given
// sub-dimensionality through software, then hardware NDS, returning each
// one's effective MB/s.
func ndsSweep(p *Platform, m *Matrix2D, sub []int64) (sw, hw float64, err error) {
	for _, sys := range []*system.System{p.Software, p.Hardware} {
		v, mb := m.SoftView, &sw
		if sys.Kind == system.HardwareNDS {
			v, mb = m.HardView, &hw
		}
		var total int64
		var done sim.Time
		for i := int64(0); i*sub[0] < m.N; i++ {
			for j := int64(0); j*sub[1] < m.N; j++ {
				_, st, err := sys.NDSRead(0, v, []int64{i, j}, sub)
				if err != nil {
					return 0, 0, err
				}
				total += st.Bytes
				done = sim.Max(done, st.Done)
			}
		}
		*mb = mbps(total, done)
	}
	return sw, hw, nil
}

// Figure9B measures column-block fetches of width w: the row-store baseline
// needs one small I/O per matrix row, the column-store baseline reads
// contiguously, and NDS reads building-block columns.
func Figure9B(p *Platform, m *Matrix2D) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, w := range bbMultiples(m, []int64{2, 4, 8, 16}) {
		pt := Fig9Point{Label: fmt.Sprintf("%dx%d", m.N, w)}
		p.ResetTimelines()

		// Row-store baseline: fetching one w-wide column block touches every
		// row with a w*8-byte request. Measure one column block (the pattern
		// is identical for the rest and run time stays bounded).
		runs := make([]system.Run, 0, m.N)
		for r := int64(0); r < m.N; r++ {
			runs = append(runs, system.Run{Off: r * m.RowBytes(), Len: w * m.ElemSize})
		}
		_, st, err := p.Baseline.BaselineRead(0, runs, true, 1)
		if err != nil {
			return nil, err
		}
		pt.BaselineMB = mbps(st.Bytes, st.Done)

		// Column-store baseline: the same bytes are contiguous.
		p.Baseline.ResetTimelines()
		_, st, err = p.Baseline.BaselineRead(0,
			[]system.Run{{Off: 0, Len: m.N * w * m.ElemSize}}, false, 1)
		if err != nil {
			return nil, err
		}
		pt.BaselineAlt = mbps(st.Bytes, st.Done)

		// NDS: one partition per column block; measure a full matrix sweep.
		if pt.SoftwareMB, pt.HardwareMB, err = ndsSweep(p, m, []int64{m.N, w}); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure9C measures square submatrix fetches of side k (1024..16384 in the
// paper). The row-store baseline issues one I/O per submatrix row.
func Figure9C(p *Platform, m *Matrix2D) ([]Fig9Point, error) {
	var out []Fig9Point
	for _, k := range bbMultiples(m, []int64{4, 8, 16, 32, 64}) {
		pt := Fig9Point{Label: fmt.Sprintf("%dx%d", k, k)}
		p.ResetTimelines()

		// Baseline: fetch one full column of submatrices (N/k tiles) to
		// reach steady state; each tile needs k row-chunk I/Os.
		var runs []system.Run
		var tiles int64 = m.N / k
		for tr := int64(0); tr < tiles; tr++ {
			for r := int64(0); r < k; r++ {
				row := tr*k + r
				runs = append(runs, system.Run{Off: row * m.RowBytes(), Len: k * m.ElemSize})
			}
		}
		_, st, err := p.Baseline.BaselineRead(0, runs, true, 1)
		if err != nil {
			return nil, err
		}
		pt.BaselineMB = mbps(st.Bytes, st.Done)

		if pt.SoftwareMB, pt.HardwareMB, err = ndsSweep(p, m, []int64{k, k}); err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// Fig9Write holds panel (d): effective write bandwidth per configuration.
// The baseline writes the same contiguous volume as a row or a column store.
type Fig9Write struct {
	BaselineRowMB float64
	SoftwareMB    float64
	HardwareMB    float64
}

// Figure9D writes an NxN matrix of doubles into a *fresh* platform,
// synchronously, in row bands sized so that each band fills whole pages in
// every building block it touches (the full-page write path the STL's §4.4
// write buffering achieves). The paper's methodology disables asynchronous
// writes and measures until programming completes.
func Figure9D(n int64) (Fig9Write, error) {
	var out Fig9Write
	p, err := NewPlatform(n * n * 8)
	if err != nil {
		return out, err
	}
	defer p.Close()
	rowBytes := n * 8
	ps := int64(p.Baseline.Cfg.Geometry.PageSize)

	// Rows per band: smallest count whose per-building-block contribution is
	// page-aligned. One matrix row contributes bbLast*8 bytes to each block.
	swView, err := workloads.NewSpace(p.Software, 8, []int64{n, n})
	if err != nil {
		return out, err
	}
	perRow := swView.Space().BlockDims()[1] * 8
	band := ps / perRow
	if band < 1 {
		band = 1
	}
	bandBytes := band * rowBytes

	var runs []system.Run
	for off := int64(0); off+bandBytes <= n*n*8; off += bandBytes {
		runs = append(runs, system.Run{Off: off, Len: bandBytes})
	}
	before := p.Baseline.FTL.GCReport()
	st, err := p.Baseline.BaselineWrite(0, runs, nil)
	if err != nil {
		return out, err
	}
	if err := workloads.Collected(before, p.Baseline.FTL.GCReport()); err != nil {
		return out, fmt.Errorf("experiments: baseline write: %w", err)
	}
	out.BaselineRowMB = mbps(st.Bytes, st.Done)

	hwView, err := workloads.NewSpace(p.Hardware, 8, []int64{n, n})
	if err != nil {
		return out, err
	}
	for _, cfg := range []struct {
		sys  *system.System
		view *stl.View
		dst  *float64
	}{
		{p.Software, swView, &out.SoftwareMB},
		{p.Hardware, hwView, &out.HardwareMB},
	} {
		cfg.sys.ResetTimelines()
		before := cfg.sys.STL.GCReport()
		var total int64
		now := sim.Time(0)
		for i := int64(0); i*band < n; i++ {
			st, err := cfg.sys.NDSWrite(now, cfg.view, []int64{i, 0}, []int64{band, n}, nil)
			if err != nil {
				return out, err
			}
			total += st.Bytes
			now = st.Done // synchronous writes
		}
		if err := workloads.Collected(before, cfg.sys.STL.GCReport()); err != nil {
			return out, fmt.Errorf("experiments: %v write: %w", cfg.sys.Kind, err)
		}
		*cfg.dst = mbps(total, now)
	}
	return out, nil
}
