package experiments

import (
	"nds/internal/accel"
	"nds/internal/sim"
	"nds/internal/system"
	"nds/internal/workloads"
)

// Figure 2: relative execution time of pipelined blocked matrix
// multiplication (32Kx32K inputs, 8Kx8K sub-blocks, fp32) with a row-store
// (sequential) source layout versus a sub-block layout, (a) with data already
// in main memory and (b) streamed from a 32-channel SSD. The paper's values
// are the report's (report.go).

// Fig2Result holds one panel's outcome.
type Fig2Result struct {
	BaselineTime sim.Time
	SubBlockTime sim.Time
	// Stage shares of the baseline run (seconds of bottleneck occupancy).
	SSDTime    sim.Time
	CPUTime    sim.Time
	KernelTime sim.Time
	// Ratio is BaselineTime / SubBlockTime.
	Ratio float64
	// FetchRatio is baseline fetch time / sub-block fetch time (panel b).
	FetchRatio float64
}

// fig2Params describes the experiment's shape.
type fig2Params struct {
	n     int64 // full matrix dimension
	tile  int64 // sub-block dimension
	elem  int64 // element size (fp32)
	iters int   // kernel launches: (n/tile)^3
}

func defaultFig2() fig2Params {
	return fig2Params{n: 32768, tile: 8192, elem: 4, iters: 64}
}

// stages are the host stages of one iteration, fed the same way in both
// panels: marshalling a tile pair (the baseline only), the GPU copy, and the
// kernel.
func (p fig2Params) stages() (marshal, copyD, kernel sim.Time) {
	tileBytes := p.tile * p.tile * p.elem
	pairBytes := 2 * tileBytes
	// Forming a tile from a row-store image is a strided copy: every byte is
	// loaded from the source and stored to the tile buffer, so the memory
	// traffic is twice the payload; one chunk per source row per tile.
	marshal = system.HostMarshal(2*pairBytes, int(2*p.tile))
	// The copy stage moves the tile pair in and (amortized over the tiles
	// summed into one C tile) a result tile out.
	copyD = accel.CopyDuration(pairBytes) + accel.CopyDuration(tileBytes)/sim.Time(p.n/p.tile)
	return marshal, copyD, accel.CUDACores().Duration(pairBytes, p.tile)
}

// Figure2A computes panel (a): data already in host memory, so the baseline
// differs from the sub-block configuration only by the CPU marshalling stage
// that forms each 8Kx8K tile pair from the row-store image (problem [P1]).
func Figure2A() Fig2Result {
	p := defaultFig2()
	marshal, copyD, kernel := p.stages()
	base := sim.NewPipeline(3)
	sub := sim.NewPipeline(2)
	for i := 0; i < p.iters; i++ {
		base.Feed(marshal, copyD, kernel)
		sub.Feed(copyD, kernel)
	}
	r := Fig2Result{
		BaselineTime: base.End(),
		SubBlockTime: sub.End(),
		CPUTime:      marshal * sim.Time(p.iters),
		KernelTime:   kernel * sim.Time(p.iters),
	}
	r.Ratio = r.BaselineTime.Seconds() / r.SubBlockTime.Seconds()
	return r
}

// Figure2B computes panel (b): the tile pairs stream from the 32-channel
// SSD. The row-store baseline fetches each tile with one 32 KB I/O per row
// (under-utilizing the channels, problem [P3]), while the sub-block layout
// fetches each tile contiguously.
func Figure2B() (Fig2Result, error) {
	p := defaultFig2()
	// Run at the paper's dimensions (so request sizes and the channel-stripe
	// structure are exact), but measure a 1/sample slice of each tile's rows
	// and extrapolate: the access pattern repeats identically per row, so
	// steady-state fetch time is linear in the row count.
	const sample = 8
	rowBytes := p.n * p.elem

	ssd, err := system.New(system.Baseline, system.PrototypeConfig(p.n*p.n*p.elem, true))
	if err != nil {
		return Fig2Result{}, err
	}
	defer ssd.Close()
	if err := workloads.LoadLinear(ssd, p.n*p.n*p.elem); err != nil {
		return Fig2Result{}, err
	}

	// Row-store fetch of one tile pair: one I/O per tile row per tile. The
	// paper's baseline applications are carefully optimized (§6.2), so the
	// fetch loop runs deeply pipelined (multiple I/O threads): QD 64.
	// Across the l-sweep of blocked GEMM, the B tile's column offset varies,
	// so the pair's chunks sometimes share channels with the A tile (the
	// worst case of [P3]) and sometimes do not; average the variants.
	var baseFetch sim.Time
	variants := p.n / p.tile
	for lcol := int64(0); lcol < variants; lcol++ {
		ssd.ResetTimelines()
		var runs []system.Run
		for r := int64(0); r < p.tile/sample; r++ {
			runs = append(runs, system.Run{Off: r * rowBytes, Len: p.tile * p.elem})
			runs = append(runs, system.Run{Off: r*rowBytes + lcol*p.tile*p.elem, Len: p.tile * p.elem})
		}
		_, st, err := ssd.BaselineRead(0, runs, false, 64)
		if err != nil {
			return Fig2Result{}, err
		}
		baseFetch += st.Done * sample / sim.Time(variants)
	}

	// Sub-block fetch: both tiles contiguous (sampled the same way).
	ssd.ResetTimelines()
	tileBytesS := p.tile * p.tile * p.elem / sample
	_, st, err := ssd.BaselineRead(0, []system.Run{
		{Off: 0, Len: tileBytesS},
		{Off: tileBytesS, Len: tileBytesS},
	}, false, 64)
	if err != nil {
		return Fig2Result{}, err
	}
	subFetch := st.Done * sample

	marshal, copyD, kernel := p.stages()
	base := sim.NewPipeline(4)
	sub := sim.NewPipeline(3)
	for i := 0; i < p.iters; i++ {
		base.Feed(baseFetch, marshal, copyD, kernel)
		sub.Feed(subFetch, copyD, kernel)
	}
	r := Fig2Result{
		BaselineTime: base.End(),
		SubBlockTime: sub.End(),
		SSDTime:      baseFetch * sim.Time(p.iters),
		CPUTime:      marshal * sim.Time(p.iters),
		KernelTime:   kernel * sim.Time(p.iters),
	}
	r.Ratio = r.BaselineTime.Seconds() / r.SubBlockTime.Seconds()
	r.FetchRatio = baseFetch.Seconds() / subFetch.Seconds()
	return r, nil
}
