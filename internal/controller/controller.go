// Package controller models the SSD controller firmware of §5.3: both the
// baseline NVMe controller (command handler + address lookup + channel
// handlers) and the NDS-compliant controller of Figure 8, whose pipeline
// adds a space translator/manager, a space allocator with garbage collector,
// and a data assembler working out of device DRAM. Pipeline elements are
// statically mapped to ARM cores and communicate through message queues; this
// package holds each element's cost, and the system model (internal/system)
// books them on one timeline per element, so per-request costs and element
// occupancy compose correctly.
package controller

import "nds/internal/sim"

// Params is the per-element cost model.
type Params struct {
	// CmdHandle is the PCIe/NVMe command handler's cost per command.
	CmdHandle sim.Time
	// AddrLookup is the baseline controller's FTL lookup per command.
	AddrLookup sim.Time
	// Translate is the NDS controller's space translation per request: the
	// on-device B-tree walk. §7.3 measures 17 us of added worst-case latency
	// versus the baseline, dominated by this stage.
	Translate sim.Time
	// PerPage is the channel handler dispatch cost per page operation.
	PerPage sim.Time
	// AssembleChunk is the data assembler's fixed cost per gathered extent;
	// the in-device DMA gather engine makes this far cheaper than a host
	// memcpy loop.
	AssembleChunk sim.Time
	// AssembleBW is the device-DRAM bandwidth available to the assembler on
	// the read path (a hardware DMA gather).
	AssembleBW float64
	// DisassembleBW is the write-direction bandwidth: breaking inbound
	// row-major data into building-block pages is firmware-driven on the
	// ARM cores and markedly slower, the source of hardware NDS's 17% write
	// penalty (§7.1).
	DisassembleBW float64
}

// BaselineParams models the conventional NVMe controller: same cores, but an
// address-lookup function instead of the space translator and a
// command-control manager instead of the data assembler (§5.3.2).
func BaselineParams() Params {
	return Params{
		CmdHandle:  2 * sim.Microsecond,
		AddrLookup: 2 * sim.Microsecond,
		PerPage:    300 * sim.Nanosecond,
	}
}

// NDSParams models the prototype NDS controller on ARM A72 cores.
func NDSParams() Params {
	return Params{
		CmdHandle:     2 * sim.Microsecond,
		AddrLookup:    2 * sim.Microsecond,
		Translate:     18 * sim.Microsecond,
		PerPage:       300 * sim.Nanosecond,
		AssembleChunk: 60 * sim.Nanosecond,
		AssembleBW:    8e9,
		DisassembleBW: 2e9,
	}
}
