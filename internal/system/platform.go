package system

import (
	"nds/internal/accel"
	"nds/internal/nvm"
	"nds/internal/sim"
)

// The evaluation platform's calibration (§6.1): a Ryzen 3700X host, a
// 40 Gbps NVMe-oF link, a controller on ARM A72 cores and a 32-channel flash
// array. Each value is declared once, here. command (ops.go) books these on
// the system's timelines, and the figures that cost a host or link stage
// outside a System — Figure 2's and Figure 10's marshalling, Figure 3's link
// curves — read the same declarations through HostMarshal, NVMeoF and
// ConsumerNVMe.

// The host: the CPU cost of the storage software stack (problem [P1] — every
// I/O request and every marshalling memcpy spends CPU instructions), the
// host-DRAM copy bandwidth, and software NDS's host-resident space
// translation. command books them on the host's I/O and worker threads,
// which the paper's pipelined applications run on different cores.
const (
	// hostSubmit is the syscall, driver and completion handling of one I/O
	// request.
	hostSubmit = 7 * sim.Microsecond
	// hostChunk is the fixed cost of each marshalling copy (offset
	// arithmetic, loop control, cache effects). It is what makes software
	// NDS's 2 KB assembly copies expensive: it caps them near 3.8 GB/s
	// (§7.1).
	hostChunk = 340 * sim.Nanosecond
	// hostMemcpyBW is the sustained single-stream host memcpy bandwidth.
	hostMemcpyBW = 10e9
	// hostTraversal is software NDS's host-side B-tree walk; §7.3 measures
	// 41 us of added latency for a worst-case single-page request.
	hostTraversal = 41 * sim.Microsecond
	// hostScatterChunk is the per-chunk cost of the write direction:
	// breaking a row-major source buffer into building-block-ordered pages
	// is a strided, cache-hostile scatter, considerably more expensive than
	// the gather (§7.1 reports a 30% write-bandwidth loss for software NDS
	// from exactly this).
	hostScatterChunk = 2 * sim.Microsecond
)

// HostMarshal is the host CPU time of restructuring data: chunks discrete
// copies moving a total of n bytes. This is the [P1] serialization cost; it
// is also software NDS's assembly cost with chunks = extents.
func HostMarshal(n int64, chunks int) sim.Time {
	return copyTime(n, chunks, hostChunk, hostMemcpyBW)
}

// The controller: the firmware's pipeline elements of §5.3, statically
// mapped to ARM A72 cores and talking through message queues. command books
// each on its own timeline, so per-request costs and element occupancy
// compose. Hardware NDS's controller is the prototype of Figure 8; the
// baseline's conventional NVMe controller has the same cores, with an
// address lookup instead of the space translator and a command-control
// manager instead of the data assembler (§5.3.2). The model books no
// controller element for software NDS: its translation and assembly run on
// the host.
const (
	// ctrlCmdHandle is the PCIe/NVMe command handler, per command.
	ctrlCmdHandle = 2 * sim.Microsecond
	// ctrlAddrLookup is the baseline's FTL address lookup, per command.
	ctrlAddrLookup = 2 * sim.Microsecond
	// ctrlTranslate is hardware NDS's space translation per request: the
	// on-device B-tree walk. §7.3 measures 17 us of added worst-case latency
	// versus the baseline, dominated by this stage.
	ctrlTranslate = 18 * sim.Microsecond
	// ctrlDispatch is the channel handlers' dispatch, per page a hardware
	// NDS read reads. The baseline books none; whether its channel handlers
	// cost the same per page is open (ROADMAP.md, "The baseline's channel
	// dispatch").
	ctrlDispatch = 300 * sim.Nanosecond
	// ctrlAssembleChunk is the data assembler's fixed cost per gathered
	// extent; the in-device DMA gather engine makes it far cheaper than a
	// host memcpy loop.
	ctrlAssembleChunk = 60 * sim.Nanosecond
	// ctrlAssembleBW is the device-DRAM bandwidth of the assembler's
	// read-path gather (a hardware DMA).
	ctrlAssembleBW = 8e9
	// ctrlDisassembleBW is the write direction: breaking inbound row-major
	// data into building-block pages is firmware-driven on the ARM cores and
	// markedly slower, the source of hardware NDS's 17% write penalty
	// (§7.1).
	ctrlDisassembleBW = 2e9
)

// mustRateCurve builds a static curve; the anchors below are compile-time
// constants, so failure is a programming error.
func mustRateCurve(name string, pts []accel.RatePoint) accel.RateCurve {
	c, err := accel.NewRateCurve(name, pts)
	if err != nil {
		panic(err)
	}
	return c
}

var (
	// hostScanRate models a single host core streaming a predicate scan
	// (Ryzen 3700X class): ramps from launch-overhead-bound at a page to
	// ~16 GB/s saturated.
	hostScanRate = mustRateCurve("host-scan", []accel.RatePoint{
		{Dim: 4 << 10, Rate: 2.5e9},
		{Dim: 64 << 10, Rate: 8e9},
		{Dim: 1 << 20, Rate: 14e9},
		{Dim: 16 << 20, Rate: 16e9},
	})
	// ctrlScanRate models the same kernel on a controller ARM A72 core:
	// roughly 5-6x slower across the range, the compute half of the
	// pushdown tradeoff.
	ctrlScanRate = mustRateCurve("ctrl-scan", []accel.RatePoint{
		{Dim: 4 << 10, Rate: 0.6e9},
		{Dim: 64 << 10, Rate: 1.6e9},
		{Dim: 1 << 20, Rate: 2.6e9},
		{Dim: 16 << 20, Rate: 3e9},
	})
)

// Link is a host-to-device link's cost: a peak bandwidth and a fixed
// per-command overhead (submission, doorbells, completion), which together
// give the size-dependent efficiency curve behind problem [P2]. Requests
// saturate a link only when they are large, while small ones pay the
// overhead on every command.
type Link struct {
	PeakBW      float64  // bytes per second at full efficiency
	CmdOverhead sim.Time // fixed per-command cost
}

// NVMeoF is the prototype's 40 Gbps NVMe-over-Fabrics path and the link
// every System books: ~4.6 GB/s payload peak with a 3 us per-command
// overhead, which yields ~66% efficiency at 32 KB and saturation from 2 MB,
// matching §2.1.
func NVMeoF() Link { return Link{PeakBW: 4.6e9, CmdOverhead: 3 * sim.Microsecond} }

// ConsumerNVMe is the 8-channel consumer-class NVMe SSD's link of Figure 3.
func ConsumerNVMe() Link { return Link{PeakBW: 3.5e9, CmdOverhead: 2 * sim.Microsecond} }

// Duration is the service time of one command moving n bytes.
func (l Link) Duration(n int64) sim.Time {
	return l.CmdOverhead + sim.TransferTime(n, l.PeakBW)
}

// Efficiency is the achieved fraction of peak bandwidth for commands of n
// bytes.
func (l Link) Efficiency(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return sim.TransferTime(n, l.PeakBW).Seconds() / l.Duration(n).Seconds()
}

// EffectiveBandwidth is PeakBW * Efficiency(n).
func (l Link) EffectiveBandwidth(n int64) float64 {
	return l.PeakBW * l.Efficiency(n)
}

// EvalTiming is the evaluation platform's flash timing, calibrated so the
// device's internal-to-external bandwidth ratio is the paper's 8:5 (§7.2):
// 32 channels x 250 MB/s = 8 GB/s internal vs the 4.6 GB/s NVMeoF link.
func EvalTiming() nvm.Timing {
	return nvm.Timing{
		ReadPage:    55 * sim.Microsecond,
		ProgramPage: 1600 * sim.Microsecond,
		EraseBlock:  3 * sim.Millisecond,
		ChannelBW:   250e6,
	}
}

// Default bandwidths for the building-block cache DRAM, used when a
// configuration enables the cache without naming one. Host DRAM (SoftwareNDS:
// the STL caches in host memory) is modeled as one DDR4-3200 channel;
// controller DRAM (HardwareNDS: the cache lives next to the in-device STL) as
// half that, matching the modest LPDDR channels of SSD controllers.
const (
	hostCacheDRAMBW = 25.6e9
	ctrlCacheDRAMBW = 12.8e9
)
