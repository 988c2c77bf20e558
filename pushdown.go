package nds

import (
	"errors"
	"fmt"

	"nds/internal/sim"
	"nds/internal/stl"
	"nds/internal/tensor"
)

// In-storage compute pushdown: predicate scans and block-level reductions
// executed at the STL, next to the building-block cache, returning only
// results. This is the [P2] interconnect problem turned into an operator: on
// a hardware device the raw pages never cross the link (Stats.RawBytes is
// the result size), while a software device still ships every page to the
// host and filters there — the comparison is the experiment.
//
// Elements are unsigned little-endian integers of the space's element size
// (1, 2, 4, or 8 bytes); other element sizes reject with ErrInvalid. Indexes
// are row-major element positions within the scanned partition. Unwritten
// regions read as zeros, exactly as Read would return them, so a pushdown
// result is byte-for-byte what the host would compute from Read's buffer —
// the differential tests hold every configuration to that.

// ErrPushdownDisabled reports a Scan or Reduce on a device opened with
// Options.DisablePushdown. The wire layer maps it to StatusUnsupportedOp.
var ErrPushdownDisabled = errors.New("pushdown disabled on this device")

// Float values become scannable through the order-preserving key transform
// (tensor.Key32/Key64, the sign-flip trick): store Key32(f) instead of f's
// raw bits and any float range predicate becomes an unsigned range predicate
// the device can evaluate. The helpers below build predicates for spaces
// stored in key encoding; FloatKey32/FloatKey64 and their inverses are
// re-exported so callers can encode on write and decode scan results.

// FloatKey32 maps a float32 to the 4-byte key whose unsigned order matches
// the float total order (-NaN < -Inf < ... < -0 < +0 < ... < +Inf < +NaN).
func FloatKey32(f float32) uint32 { return tensor.Key32(f) }

// FloatFromKey32 inverts FloatKey32, recovering the exact bit pattern.
func FloatFromKey32(k uint32) float32 { return tensor.FromKey32(k) }

// FloatKey64 maps a float64 to the 8-byte key whose unsigned order matches
// the float total order.
func FloatKey64(f float64) uint64 { return tensor.Key64(f) }

// FloatFromKey64 inverts FloatKey64, recovering the exact bit pattern.
func FloatFromKey64(k uint64) float64 { return tensor.FromKey64(k) }

// Float32Range builds a predicate matching keys of float32 values in the
// inclusive range [lo, hi], for spaces of 4-byte elements stored in
// FloatKey32 encoding.
func Float32Range(lo, hi float32) Predicate {
	return Predicate{Lo: uint64(tensor.Key32(lo)), Hi: uint64(tensor.Key32(hi))}
}

// Float64Range builds a predicate matching keys of float64 values in the
// inclusive range [lo, hi], for spaces of 8-byte elements stored in
// FloatKey64 encoding.
func Float64Range(lo, hi float64) Predicate {
	return Predicate{Lo: tensor.Key64(lo), Hi: tensor.Key64(hi)}
}

// Predicate is an inclusive unsigned value range [Lo, Hi].
type Predicate = stl.Predicate

// ScanQuery selects elements of a partition by predicate. Cursor resumes a
// truncated scan at the element index a previous result's NextCursor
// reported; Max bounds the reported matches (<= 0 means unlimited through
// the typed API; the wire protocol bounds results to one page).
type ScanQuery = stl.ScanQuery

// Match is one scan hit: the element's row-major index within the scanned
// partition and its value.
type Match = stl.Match

// ScanResult reports a scan: the matches at or past the query cursor (up to
// Max), the true total match count over the whole partition regardless of
// truncation, and the cursor resuming a truncated scan (-1 when complete).
type ScanResult = stl.ScanResult

// ReduceKind selects a reduction operator.
type ReduceKind = stl.ReduceKind

// Reduction operators. Values are stable on the wire.
const (
	// ReduceSum sums matching elements (wrapping uint64 arithmetic).
	ReduceSum = stl.ReduceSum
	// ReduceCount counts matching elements — nonzero elements when the query
	// has no predicate.
	ReduceCount = stl.ReduceCount
	// ReduceMin reports the smallest matching element and its first index.
	ReduceMin = stl.ReduceMin
	// ReduceMax reports the largest matching element and its first index.
	ReduceMax = stl.ReduceMax
	// ReduceTopK reports the K largest matching elements, descending (ties
	// broken by ascending index).
	ReduceTopK = stl.ReduceTopK
)

// ReduceQuery configures a reduction: the operator, K for ReduceTopK, and an
// optional predicate restricting which elements participate (nil admits all
// elements — except for ReduceCount, where nil counts nonzero elements).
type ReduceQuery = stl.ReduceQuery

// ReduceResult reports a reduction. Value carries the scalar result (sum,
// count, min, max, or the top value); Index is the first element attaining a
// min/max (-1 when the partition had no matching elements); Count is how
// many elements contributed; TopK holds ReduceTopK's entries.
type ReduceResult = stl.ReduceResult

// Scan executes a predicate scan over the partition at coord/sub inside the
// device, returning matching elements without materializing the partition on
// the host. Timing, flash operations, and tenant QoS charging are identical
// to the Read of the same partition; what differs is what crosses the
// interconnect (see Stats.RawBytes). Scans work on phantom devices — an
// unstored partition is all zeros.
func (s *Space) Scan(coord, sub []int64, q ScanQuery) (ScanResult, Stats, error) {
	var res ScanResult
	st, err := s.issue("scan", func(at sim.Time, v *stl.View) (st Stats, err error) {
		if s.dev.noPushdown {
			return st, fmt.Errorf("nds: scan: %w", ErrPushdownDisabled)
		}
		res, st, err = s.dev.sys.NDSScan(at, v, coord, sub, q)
		return st, err
	})
	return res, st, err
}

// Reduce executes a block-level reduction over the partition at coord/sub
// inside the device, with the same timing, charging, and interconnect
// semantics as Scan.
func (s *Space) Reduce(coord, sub []int64, q ReduceQuery) (ReduceResult, Stats, error) {
	var res ReduceResult
	st, err := s.issue("reduce", func(at sim.Time, v *stl.View) (st Stats, err error) {
		if s.dev.noPushdown {
			return st, fmt.Errorf("nds: reduce: %w", ErrPushdownDisabled)
		}
		res, st, err = s.dev.sys.NDSReduce(at, v, coord, sub, q)
		return st, err
	})
	return res, st, err
}
