package workloads

import (
	"nds/internal/accel"
	"nds/internal/hostsim"
	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/system"
)

// Result is one workload's Figure 10 outcome.
type Result struct {
	Spec Spec

	// End-to-end pipelined latency per configuration.
	Baseline sim.Time
	Software sim.Time
	Hardware sim.Time
	Oracle   sim.Time // zero-overhead software library + per-workload optimal layout

	// Idle time before the compute kernel (Figure 10b).
	BaselineIdle sim.Time
	SoftwareIdle sim.Time
	HardwareIdle sim.Time

	SpeedupSoftware float64
	SpeedupHardware float64
	SpeedupOracle   float64

	IdleReductionSW float64 // fraction of baseline kernel idle removed
	IdleReductionHW float64

	// Pushdown variant (Spec.Push != nil): the same pipeline with the
	// selection phase executed at the STL, so the copy and kernel stages
	// consume result bytes instead of raw partitions.
	SoftwarePush        sim.Time
	HardwarePush        sim.Time
	SpeedupSoftwarePush float64 // vs Baseline
	SpeedupHardwarePush float64 // vs Baseline
	PushWinHW           float64 // Hardware / HardwarePush: >1 = end-to-end sim-time win

	// Per-iteration stage split (Figure 10's I/O vs compute decomposition)
	// for the read and pushdown fetch forms.
	SWFetch, HWFetch         sim.Time
	SWPushFetch, HWPushFetch sim.Time
	CopyRead, KernelRead     sim.Time
	CopyPush, KernelPush     sim.Time

	// Per-iteration interconnect volume, measured from the fetch stage's
	// OpStats (result pages under hardware pushdown, raw pages on software).
	HWLinkBytes, HWPushLinkBytes int64
	SWLinkBytes, SWPushLinkBytes int64
}

// linearRuns decomposes a partition (at/sub over dims) of a row-major linear
// layout into contiguous byte runs — the I/O requests the baseline
// application must issue.
func linearRuns(dims []int64, elem int, at, sub []int64) []system.Run {
	m := len(dims)
	shape := make([]int64, m)
	for i := range shape {
		lo := at[i] * sub[i]
		hi := lo + sub[i]
		if hi > dims[i] {
			hi = dims[i]
		}
		shape[i] = hi - lo
	}
	// Row-major strides in bytes.
	strides := make([]int64, m)
	s := int64(elem)
	for i := m - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	var runs []system.Run
	idx := make([]int64, m)
	for {
		off := int64(0)
		for i := 0; i < m; i++ {
			off += (at[i]*sub[i] + idx[i]) * strides[i]
		}
		length := shape[m-1] * int64(elem)
		if n := len(runs); n > 0 && runs[n-1].Off+runs[n-1].Len == off {
			runs[n-1].Len += length // contiguous with the previous run: merge
		} else {
			runs = append(runs, system.Run{Off: off, Len: length})
		}
		i := m - 2
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < shape[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return runs
		}
	}
}

// varyCoord shifts a fetch's coordinate for measurement repetition r along
// the first dimension with room, so repeated fetches touch distinct pages
// (consecutive pipeline iterations never re-read the same partition).
func varyCoord(spec Spec, f Fetch, r int) []int64 {
	at := append([]int64(nil), f.At...)
	for i := range at {
		if (at[i]+int64(r)+1)*f.Sub[i] <= spec.Dims[i] {
			at[i] += int64(r)
			return at
		}
	}
	return at
}

// platformFor builds the three systems for a spec and loads its dataset
// into each.
func platformFor(spec Spec) (p *Platform, swView, hwView *stl.View, err error) {
	cfg := system.PrototypeConfig(spec.Bytes(), true)
	if spec.BBOrder != 0 {
		cfg.STL.BBOrder = spec.BBOrder
		cfg.STL.BBMultiplier = 1
	}
	if p, err = NewPlatform(cfg); err != nil {
		return
	}
	p.Software.BlockedAssembly = spec.Blocked
	p.Hardware.BlockedAssembly = spec.Blocked
	if err = LoadLinear(p.Baseline, spec.Bytes()); err != nil {
		return
	}
	if swView, err = LoadBands(p.Software, spec.Elem, spec.Dims); err != nil {
		return
	}
	hwView, err = LoadBands(p.Hardware, spec.Elem, spec.Dims)
	return
}

// Run evaluates one workload on all configurations and returns the Figure 10
// data point. Stage durations are measured once per configuration on a quiet
// platform (the access pattern is identical across iterations), then the
// paper's software pipeline — fetch, [marshal,] host-to-device copy, kernel —
// is scheduled for the workload's full iteration count.
func Run(spec Spec) (Result, error) {
	res := Result{Spec: spec}
	p, swView, hwView, err := platformFor(spec)
	if err != nil {
		return res, err
	}
	base, sw, hw := p.Baseline, p.Software, p.Hardware

	// --- Stage durations. ---
	// Baseline fetch: the paper's baselines are individually tuned (§6.2),
	// so for each partition the baseline uses whichever is cheaper of
	//   (a) gathering the partition with one I/O per contiguous run at the
	//       workload's queue depth, or
	//   (b) fetching the partition's whole contiguous superset (§2.1's
	//       "fetch consecutive chunks into a large memory buffer" strategy,
	//       which wastes I/O bandwidth on unneeded bytes but avoids small
	//       requests) and extracting on the CPU.
	// Either way, a non-contiguous partition costs a marshalling stage that
	// reads and rewrites every byte (2x traffic) in one chunk per fragment.
	// Stage durations are measured in steady state: each pattern repeats
	// reps times back-to-back (pipelined applications keep the next request
	// in flight while earlier data drains), and the per-iteration duration
	// is the average.
	const reps = 4
	qd := spec.GatherQD
	if qd == 0 {
		qd = 1
	}
	var baseFetch sim.Time
	totalRuns := 0
	for _, f := range spec.Fetches {
		totalRuns += len(linearRuns(spec.Dims, spec.Elem, f.At, f.Sub))

		base.ResetTimelines()
		var repeated []system.Run
		for r := 0; r < reps; r++ {
			repeated = append(repeated, linearRuns(spec.Dims, spec.Elem, varyCoord(spec, f, r), f.Sub)...)
		}
		_, st, err := base.BaselineRead(0, repeated, false, qd)
		if err != nil {
			return res, err
		}
		gather := st.Done / reps

		base.ResetTimelines()
		var sup []system.Run
		for r := 0; r < reps; r++ {
			runs := linearRuns(spec.Dims, spec.Elem, varyCoord(spec, f, r), f.Sub)
			span := runs[len(runs)-1].Off + runs[len(runs)-1].Len - runs[0].Off
			sup = append(sup, system.Run{Off: runs[0].Off, Len: span})
		}
		_, st, err = base.BaselineRead(0, sup, false, 2)
		if err != nil {
			return res, err
		}
		superset := st.Done / reps

		baseFetch += sim.Min(gather, superset)
	}

	var marshal sim.Time
	if totalRuns > len(spec.Fetches) {
		marshal = hostsim.DefaultParams().MarshalDuration(2*spec.FetchBytes(), totalRuns)
	}

	// Oracle fetch: the per-workload optimal layout stores each partition
	// contiguously (at the cost of dataset copies for shared inputs), and
	// the zero-overhead library adds no CPU work.
	var oracleFetch sim.Time
	for _, f := range spec.Fetches {
		n := int64(spec.Elem)
		for _, d := range f.Sub {
			n *= d
		}
		base.ResetTimelines()
		runs := make([]system.Run, reps)
		for r := range runs {
			off := int64(r) * n
			if off+n > spec.Bytes() {
				off = 0
			}
			runs[r] = system.Run{Off: off, Len: n}
		}
		_, st, err := base.BaselineRead(0, runs, false, 2)
		if err != nil {
			return res, err
		}
		oracleFetch += st.Done / reps
	}

	// NDS fetches: reps commands in flight, averaged. push routes each fetch
	// through the pushdown selection model (NDSSelect: identical plan and
	// stage structure to a scan, with the result volume the spec declares);
	// the per-iteration link bytes come from the same OpStats.
	ndsFetch := func(sys *system.System, v *stl.View, push bool) (sim.Time, int64, error) {
		sys.ResetTimelines()
		var t sim.Time
		var raw int64
		for r := 0; r < reps; r++ {
			for _, f := range spec.Fetches {
				var st system.OpStats
				var err error
				if push {
					st, err = sys.NDSSelect(0, v, varyCoord(spec, f, r), f.Sub, spec.pushResultBytes(f))
				} else {
					_, st, err = sys.NDSRead(0, v, varyCoord(spec, f, r), f.Sub)
				}
				if err != nil {
					return 0, 0, err
				}
				t = sim.Max(t, st.Done)
				raw += st.RawBytes
			}
		}
		return t / reps, raw / reps, nil
	}
	swFetch, swRaw, err := ndsFetch(sw, swView, false)
	if err != nil {
		return res, err
	}
	hwFetch, hwRaw, err := ndsFetch(hw, hwView, false)
	if err != nil {
		return res, err
	}

	gpu := accel.NewGPU()
	copyD := gpu.CopyDuration(spec.FetchBytes())
	kernel := spec.Curve.Duration(spec.FetchBytes(), spec.RateDim)

	// --- Pipelines. ---
	run4 := func(fetch, marshal sim.Time) (sim.Time, sim.Time) {
		p := sim.NewPipeline(4)
		for i := int64(0); i < spec.Iters; i++ {
			p.Feed(fetch, marshal, copyD, kernel)
		}
		return p.End(), p.Idle(3)
	}
	run3 := func(fetch, cp, kn sim.Time) (sim.Time, sim.Time) {
		p := sim.NewPipeline(3)
		for i := int64(0); i < spec.Iters; i++ {
			p.Feed(fetch, cp, kn)
		}
		return p.End(), p.Idle(2)
	}
	res.Baseline, res.BaselineIdle = run4(baseFetch, marshal)
	res.Software, res.SoftwareIdle = run3(swFetch, copyD, kernel)
	res.Hardware, res.HardwareIdle = run3(hwFetch, copyD, kernel)
	res.Oracle, _ = run3(oracleFetch, copyD, kernel)
	res.SWFetch, res.HWFetch = swFetch, hwFetch
	res.SWLinkBytes, res.HWLinkBytes = swRaw, hwRaw
	res.CopyRead, res.KernelRead = copyD, kernel

	res.SpeedupSoftware = res.Baseline.Seconds() / res.Software.Seconds()
	res.SpeedupHardware = res.Baseline.Seconds() / res.Hardware.Seconds()
	res.SpeedupOracle = res.Baseline.Seconds() / res.Oracle.Seconds()
	if res.BaselineIdle > 0 {
		res.IdleReductionSW = 1 - res.SoftwareIdle.Seconds()/res.BaselineIdle.Seconds()
		res.IdleReductionHW = 1 - res.HardwareIdle.Seconds()/res.BaselineIdle.Seconds()
	}

	if spec.Push != nil {
		swPushFetch, swPushRaw, err := ndsFetch(sw, swView, true)
		if err != nil {
			return res, err
		}
		hwPushFetch, hwPushRaw, err := ndsFetch(hw, hwView, true)
		if err != nil {
			return res, err
		}
		// Downstream of the selection, the host copies and computes over
		// result bytes, not raw partitions.
		resBytes := spec.PushResultBytes()
		copyP := gpu.CopyDuration(resBytes)
		kernelP := spec.Curve.Duration(resBytes, spec.RateDim)
		res.SoftwarePush, _ = run3(swPushFetch, copyP, kernelP)
		res.HardwarePush, _ = run3(hwPushFetch, copyP, kernelP)
		res.SWPushFetch, res.HWPushFetch = swPushFetch, hwPushFetch
		res.SWPushLinkBytes, res.HWPushLinkBytes = swPushRaw, hwPushRaw
		res.CopyPush, res.KernelPush = copyP, kernelP
		res.SpeedupSoftwarePush = res.Baseline.Seconds() / res.SoftwarePush.Seconds()
		res.SpeedupHardwarePush = res.Baseline.Seconds() / res.HardwarePush.Seconds()
		res.PushWinHW = res.Hardware.Seconds() / res.HardwarePush.Seconds()
	}
	return res, nil
}
