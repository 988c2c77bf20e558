package spec

import "slices"

// The pushdown operators, stated over a partition's elements: what a host
// computes from the bytes of a read. The types mirror the device API's field
// for field, so a test converts between them with plain conversions.

// Predicate is an inclusive unsigned value range [Lo, Hi].
type Predicate struct{ Lo, Hi uint64 }

func (p Predicate) has(v uint64) bool { return v >= p.Lo && v <= p.Hi }

// Match is one element: its row-major index in the partition and its value.
type Match struct {
	Index int64
	Value uint64
}

// ScanQuery selects the elements in Pred; matches before Cursor count toward
// Total only, and at most Max (<= 0: all) are reported.
type ScanQuery struct {
	Pred   Predicate
	Cursor int64
	Max    int
}

// ScanResult is a scan's answer: the reported matches, the partition's total
// match count, and the index of the first match past Max (-1 when none).
type ScanResult struct {
	Matches    []Match
	Total      int64
	NextCursor int64
}

// ReduceKind names a reduction; the values are the wire codes.
type ReduceKind uint8

// The reductions.
const (
	ReduceSum ReduceKind = 1 + iota
	ReduceCount
	ReduceMin
	ReduceMax
	ReduceTopK
)

// ReduceQuery is a reduction over the elements in Pred (nil: all of them).
type ReduceQuery struct {
	Kind ReduceKind
	K    int
	Pred *Predicate
}

// ReduceResult is a reduction's answer: Value the sum, count, extremum or top
// value; Index the first index attaining a min or max or the top value (-1
// otherwise or when nothing qualified); Count the elements that contributed;
// TopK the top-k entries.
type ReduceResult struct {
	Value uint64
	Index int64
	Count int64
	TopK  []Match
}

// Elems decodes a partition's bytes as little-endian unsigned elements of
// elem bytes each.
func Elems(part []byte, elem int) []uint64 {
	out := make([]uint64, len(part)/elem)
	for i := range out {
		for b := elem - 1; b >= 0; b-- {
			out[i] = out[i]<<8 | uint64(part[i*elem+b])
		}
	}
	return out
}

// ScanElems is the scan of elems.
func ScanElems(elems []uint64, q ScanQuery) ScanResult {
	res := ScanResult{NextCursor: -1}
	for i, v := range elems {
		if !q.Pred.has(v) {
			continue
		}
		res.Total++
		switch {
		case int64(i) < q.Cursor:
		case q.Max > 0 && len(res.Matches) == q.Max:
			if res.NextCursor < 0 {
				res.NextCursor = int64(i)
			}
		default:
			res.Matches = append(res.Matches, Match{Index: int64(i), Value: v})
		}
	}
	return res
}

// ReduceElems is the reduction of elems. The predicate gates every kind; a
// count with no predicate counts the nonzero elements.
func ReduceElems(elems []uint64, q ReduceQuery) ReduceResult {
	var kept []Match
	for i, v := range elems {
		if q.Pred == nil || q.Pred.has(v) {
			kept = append(kept, Match{Index: int64(i), Value: v})
		}
	}
	res := ReduceResult{Index: -1}
	switch q.Kind {
	case ReduceSum:
		for _, m := range kept {
			res.Value += m.Value
		}
		res.Count = int64(len(kept))
	case ReduceCount:
		for _, m := range kept {
			if q.Pred != nil || m.Value != 0 {
				res.Count++
			}
		}
		res.Value = uint64(res.Count)
	case ReduceMin, ReduceMax:
		for _, m := range kept {
			if res.Count == 0 || q.Kind == ReduceMin && m.Value < res.Value || q.Kind == ReduceMax && m.Value > res.Value {
				res.Value, res.Index = m.Value, m.Index
			}
			res.Count++
		}
	case ReduceTopK:
		slices.SortStableFunc(kept, func(a, b Match) int {
			switch {
			case a.Value > b.Value:
				return -1
			case a.Value < b.Value:
				return 1
			}
			return 0 // kept is in index order, and the sort is stable
		})
		res.TopK = kept[:min(q.K, len(kept))]
		res.Count = int64(len(res.TopK))
		if len(res.TopK) > 0 {
			res.Value, res.Index = res.TopK[0].Value, res.TopK[0].Index
		}
	}
	return res
}
