// Package interconnect models the host-to-device links of the evaluation
// platform: NVMe-over-Fabrics through a 40 Gbps RDMA NIC (the paper's
// prototype path), consumer NVMe, and the GPU's PCIe connection. A link has a
// peak bandwidth and a fixed per-command overhead, which together produce the
// size-dependent efficiency curve behind problem [P2]: requests saturate the
// link only when they are large (>= 2 MB in NVMe per §2.1), while a 32 KB
// request reaches only about two thirds of peak.
package interconnect

import (
	"fmt"

	"nds/internal/sim"
)

// Link is a transfer channel's cost model; the system model
// (internal/system) books its commands on one serially occupied timeline.
type Link struct {
	Name        string
	PeakBW      float64  // bytes per second at full efficiency
	CmdOverhead sim.Time // fixed per-command cost (submission, doorbells, completion)
}

// New creates a link.
func New(name string, peakBW float64, cmdOverhead sim.Time) *Link {
	return &Link{Name: name, PeakBW: peakBW, CmdOverhead: cmdOverhead}
}

// NVMeoF models the prototype's 40 Gbps NVMe-over-Fabrics path: ~4.6 GB/s
// payload peak with a 3 us per-command overhead, which yields ~66% efficiency
// at 32 KB and saturation beyond 2 MB, matching §2.1.
func NVMeoF() *Link { return New("nvmeof", 4.6e9, 3*sim.Microsecond) }

// ConsumerNVMe models the 8-channel consumer-class NVMe SSD link of Fig. 3.
func ConsumerNVMe() *Link { return New("nvme", 3.5e9, 2*sim.Microsecond) }

// PCIeX16 models the GPU's PCIe 3.0 x16 slot for host-device copies.
func PCIeX16() *Link { return New("pcie-x16", 12e9, 2*sim.Microsecond) }

// Duration is the service time of one command moving n bytes.
func (l *Link) Duration(n int64) sim.Time {
	return l.CmdOverhead + sim.TransferTime(n, l.PeakBW)
}

// Efficiency is the achieved fraction of peak bandwidth for commands of n
// bytes.
func (l *Link) Efficiency(n int64) float64 {
	if n <= 0 {
		return 0
	}
	x := sim.TransferTime(n, l.PeakBW)
	return x.Seconds() / l.Duration(n).Seconds()
}

// EffectiveBandwidth is PeakBW * Efficiency(n).
func (l *Link) EffectiveBandwidth(n int64) float64 {
	return l.PeakBW * l.Efficiency(n)
}

func (l *Link) String() string {
	return fmt.Sprintf("%s: %.1f GB/s peak, %v/cmd", l.Name, l.PeakBW/1e9, l.CmdOverhead)
}
