// Package hostsim holds the cost model of the host computer of the
// evaluation platform: the CPU cost of the storage software stack (problem
// [P1] of the paper — every I/O request and every marshalling memcpy spends
// CPU instructions), the host-DRAM copy bandwidth, and the host-resident
// space-translation cost of the software-only NDS configuration. The system
// model (internal/system) books these costs on its host I/O and worker
// threads, which the paper's pipelined applications run on different cores.
package hostsim

import "nds/internal/sim"

// Params holds the host cost model. The defaults are calibrated against the
// paper's platform (Ryzen 3700X, DDR4):
//
//   - IOSubmit: syscall + driver + completion handling per I/O request;
//   - ChunkOverhead: fixed cost of each marshalling copy (offset arithmetic,
//     loop control, cache effects) — this is what makes the software NDS's
//     2 KB assembly copies expensive (§7.1);
//   - MemcpyBW: sustained single-stream host memcpy bandwidth;
//   - STLTraversal: the host-side B-tree walk of software NDS; §7.3 measures
//     41 us of added latency for a worst-case single-page request.
type Params struct {
	IOSubmit      sim.Time
	ChunkOverhead sim.Time
	MemcpyBW      float64
	STLTraversal  sim.Time
	// ScatterChunkOverhead is the per-chunk cost of the write direction:
	// breaking a row-major source buffer into building-block-ordered pages
	// is a strided, cache-hostile scatter, considerably more expensive than
	// the gather direction (§7.1 reports a 30% write-bandwidth loss for
	// software NDS from exactly this).
	ScatterChunkOverhead sim.Time
}

// DefaultParams returns the calibrated host model.
func DefaultParams() Params {
	return Params{
		IOSubmit:             7 * sim.Microsecond,
		ChunkOverhead:        340 * sim.Nanosecond,
		MemcpyBW:             10e9,
		STLTraversal:         41 * sim.Microsecond,
		ScatterChunkOverhead: 2 * sim.Microsecond,
	}
}

// MarshalDuration is the CPU time of restructuring data: chunks discrete
// copies moving a total of n bytes. This is the [P1]
// serialization/deserialization cost; it is also the software NDS assembly
// cost with chunks = extents.
func (p Params) MarshalDuration(n int64, chunks int) sim.Time {
	return sim.Time(chunks)*p.ChunkOverhead + sim.TransferTime(n, p.MemcpyBW)
}
