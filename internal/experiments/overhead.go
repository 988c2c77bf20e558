package experiments

import (
	"fmt"

	"nds/internal/sim"
	"nds/internal/system"
)

// Section 7.3: the overhead of NDS. A worst-case request asks for a single
// page, with access patterns chosen to avoid any transformation, isolating
// the B-tree traversal cost; the index footprint is that of a fully
// populated space.

// OverheadResult holds the §7.3 measurements.
type OverheadResult struct {
	BaselineLatency sim.Time
	SoftwareLatency sim.Time
	HardwareLatency sim.Time
	SoftwareDelta   sim.Time // SoftwareLatency - BaselineLatency
	HardwareDelta   sim.Time
	IndexBytes      int64
	DataBytes       int64
	IndexOverhead   float64 // IndexBytes / DataBytes
}

// Overhead measures single-page request latency on the three systems and
// the index footprint of a fully-populated space.
func Overhead(n int64) (OverheadResult, error) {
	var out OverheadResult
	p, err := NewPlatform(n * n * 8)
	if err != nil {
		return out, err
	}
	defer p.Close()
	m, err := p.LoadMatrix(n)
	if err != nil {
		return out, err
	}
	ps := int64(p.Baseline.Cfg.Geometry.PageSize)

	// Baseline: one page-sized, page-aligned read.
	_, st, err := p.Baseline.BaselineRead(0, []system.Run{{Off: 0, Len: ps}}, false, 1)
	if err != nil {
		return out, err
	}
	out.BaselineLatency = st.Done

	// NDS: a partition that maps to exactly one page of one building block
	// (the first rowsPerPage rows of a block column), so no transformation
	// is needed and the delta is pure translation cost.
	sp := m.SoftView.Space()
	bb := sp.BlockDims()
	rowsPerPage := ps / (bb[1] * 8)
	if rowsPerPage < 1 {
		return out, fmt.Errorf("experiments: page smaller than one block row")
	}
	sub := []int64{rowsPerPage, bb[1]}
	for _, sys := range []*system.System{p.Software, p.Hardware} {
		sys.ResetTimelines()
		v := m.SoftView
		if sys.Kind == system.HardwareNDS {
			v = m.HardView
		}
		_, st, err := sys.NDSRead(0, v, []int64{0, 0}, sub)
		if err != nil {
			return out, err
		}
		if st.Pages != 1 {
			return out, fmt.Errorf("experiments: worst-case request touched %d pages, want 1", st.Pages)
		}
		if sys.Kind == system.SoftwareNDS {
			out.SoftwareLatency = st.Done
		} else {
			out.HardwareLatency = st.Done
		}
	}
	out.SoftwareDelta = out.SoftwareLatency - out.BaselineLatency
	out.HardwareDelta = out.HardwareLatency - out.BaselineLatency

	out.IndexBytes = sp.IndexFootprint()
	out.DataBytes = m.Bytes()
	out.IndexOverhead = float64(out.IndexBytes) / float64(out.DataBytes)
	return out, nil
}
