package system

import (
	"fmt"

	"nds/internal/proto"
	"nds/internal/sim"
	"nds/internal/stl"
)

// Pushdown operator dispatch: the [P2] tradeoff as a measurable experiment.
//
// Software NDS runs the STL — and therefore the operator — on the host: the
// scan executes at host-CPU rate, but every raw page still crosses the
// interconnect first, so pushdown saves nothing on the link (RawBytes equals
// a read's). Hardware NDS runs the operator on the controller's ARM core next
// to the building-block cache: the kernel is slower, but only the result
// crosses the link, so RawBytes collapses to the result's wire size.
// Comparing the two against read-then-filter turns "interconnect bytes saved
// vs compute cost" into numbers.
//
// Compute is charged through accel-style rate curves, hostScanRate and
// ctrlScanRate (platform.go; bytes/second vs scanned-bytes working set):
// small scans are dominated by setup cost, large ones saturate the engine,
// mirroring Figure 3's shape at CPU scale.

// wireResultBytes is the simulated wire size of a pushdown result of records
// matches or top-k entries over the partition sub of v's space, for a
// request whose predicate is pred (nil: none): what the device's encoder
// puts on the link (proto.Layout.ResultSize).
func wireResultBytes(v *stl.View, sub []int64, pred *stl.Predicate, op proto.Opcode, records int) int64 {
	lo, hi := uint64(0), ^uint64(0)
	if pred != nil {
		lo, hi = pred.Lo, pred.Hi
	}
	return proto.LayoutFor(v.Space().ElemSize(), sub, lo, hi).ResultSize(op, int64(records))
}

// NDSScan executes a predicate scan over one partition at the STL: a command
// with the kernel consumer.
//
// Software NDS: submission and translation on the host CPU, raw pages across
// the link, then the host worker filters them at host-scan rate. Hardware
// NDS: one extended command in, translation and the scan kernel on the
// controller, and only the result back across the link.
func (s *System) NDSScan(at sim.Time, v *stl.View, coord, sub []int64, q stl.ScanQuery) (stl.ScanResult, OpStats, error) {
	if s.Kind == Baseline {
		return stl.ScanResult{}, OpStats{}, s.wrongKind("NDSScan")
	}
	var res stl.ScanResult
	stats, err := s.command(at, request{use: kernel}, func(at sim.Time) (done sim.Time, st OpStats, out int64, err error) {
		res, done, st, err = s.STL.ScanPartition(at, v, coord, sub, q)
		return done, st, wireResultBytes(v, sub, &q.Pred, proto.OpScan, len(res.Matches)), err
	})
	return res, stats, err
}

// NDSReduce executes a block-level reduction over one partition at the STL,
// with the same stage structure and charging as NDSScan.
func (s *System) NDSReduce(at sim.Time, v *stl.View, coord, sub []int64, q stl.ReduceQuery) (stl.ReduceResult, OpStats, error) {
	if s.Kind == Baseline {
		return stl.ReduceResult{}, OpStats{}, s.wrongKind("NDSReduce")
	}
	var res stl.ReduceResult
	stats, err := s.command(at, request{use: kernel}, func(at sim.Time) (done sim.Time, st OpStats, out int64, err error) {
		res, done, st, err = s.STL.ReducePartition(at, v, coord, sub, q)
		return done, st, wireResultBytes(v, sub, q.Pred, proto.OpReduce, len(res.TopK)), err
	})
	return res, stats, err
}

// NDSSelect models a pushdown selection over the partition at coord/sub
// whose result size is declared rather than computed. The timed Figure-10
// harness runs on phantom (dataless) paper-scale platforms, where a real
// scan would see only zeros and report a degenerate match count; NDSSelect
// is NDSScan with a kernel that does nothing — the same submission,
// translation, full segment-plan read, scan-rate compute charge, and link
// transfer — but lets the caller declare how many result bytes cross the
// interconnect (header + matches for a scan, header + top-k entries for a
// reduction). On SoftwareNDS the declared size is ignored for the link:
// every raw page crosses first, exactly as NDSScan charges it.
func (s *System) NDSSelect(at sim.Time, v *stl.View, coord, sub []int64, resultBytes int64) (OpStats, error) {
	if s.Kind == Baseline {
		return OpStats{}, s.wrongKind("NDSSelect")
	}
	if resultBytes < 0 {
		return OpStats{}, fmt.Errorf("system: NDSSelect with %d result bytes", resultBytes)
	}
	return s.command(at, request{use: kernel}, func(at sim.Time) (sim.Time, OpStats, int64, error) {
		done, st, err := s.STL.ReadPartitionSegments(at, v, coord, sub, func(int64, []stl.Segment) error { return nil })
		return done, st, resultBytes, err
	})
}
