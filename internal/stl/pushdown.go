package stl

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"nds/internal/sim"
)

// Pushdown operators: predicate scan, top-k, and block-level reductions
// executed inside the STL, next to the building-block cache, over the same
// segment plan the read path produces. Instead of assembling a partition and
// shipping it to the host, the operator walks the planned page bytes in place
// and returns only the result — the interconnect carries matches and
// aggregates, not raw pages.
//
// Operators interpret elements as little-endian unsigned integers, so they
// are defined only for element sizes 1, 2, 4, and 8 bytes (ErrInvalid
// otherwise). Unwritten regions of a partition read as zeros on the read
// path, and the operators see exactly those zeros: a pushdown result is
// byte-identical to reading the partition and computing host-side, which the
// differential suite pins across every device configuration.

// Predicate selects elements whose unsigned little-endian value lies in the
// inclusive range [Lo, Hi].
type Predicate struct {
	Lo, Hi uint64
}

// ScanQuery describes one predicate scan over a partition.
type ScanQuery struct {
	// Pred is the inclusive value range to match.
	Pred Predicate
	// Cursor is the first element index (row-major within the partition)
	// eligible to be reported; earlier matches still count toward Total.
	// Resuming a truncated scan passes the previous result's NextCursor here.
	Cursor int64
	// Max bounds the reported matches; <= 0 reports every match from Cursor.
	Max int
}

// Match is one scan hit: the element's row-major index within the scanned
// partition and its value.
type Match struct {
	Index int64
	Value uint64
}

// ScanResult is a predicate scan's outcome. Total counts every match in the
// partition regardless of Cursor and Max — the true total a truncated result
// page still reports. NextCursor is the index of the first match that did not
// fit under Max (pass it as the next query's Cursor to resume), or -1 when
// Matches already covers every match at or past Cursor.
type ScanResult struct {
	Matches    []Match
	Total      int64
	NextCursor int64
}

// ReduceKind selects a block-level reduction operator. The values are wire
// codes (pushdown_reduce's op field) and must stay stable.
type ReduceKind uint8

const (
	// ReduceSum sums every element (wrapping uint64 arithmetic).
	ReduceSum ReduceKind = 1 + iota
	// ReduceCount counts elements matching the query predicate, or nonzero
	// elements when the query has no predicate.
	ReduceCount
	// ReduceMin finds the minimum element and the first index attaining it.
	ReduceMin
	// ReduceMax finds the maximum element and the first index attaining it
	// (the argmax operator).
	ReduceMax
	// ReduceTopK returns the K largest elements with their indices, ordered
	// by descending value then ascending index.
	ReduceTopK
)

func (k ReduceKind) String() string {
	switch k {
	case ReduceSum:
		return "sum"
	case ReduceCount:
		return "count"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceTopK:
		return "topk"
	}
	return fmt.Sprintf("reduce(%d)", uint8(k))
}

// ReduceQuery describes one reduction over a partition.
type ReduceQuery struct {
	Kind ReduceKind
	// K is the result bound for ReduceTopK (required >= 1 there, ignored
	// elsewhere).
	K int
	// Pred restricts which elements participate, for every kind; nil admits
	// all of them — except for ReduceCount, where nil counts nonzero elements.
	Pred *Predicate
}

// ReduceResult is a reduction's outcome. Value carries the scalar result
// (sum, count, min, or max; for ReduceCount it duplicates Count so every kind
// has its primary result in Value). Index is the first element index
// attaining a min/max, -1 for the other kinds. Count is the number of
// contributing elements: all of them for sum/min/max, the matching ones for
// count, and len(TopK) for top-k.
type ReduceResult struct {
	Value uint64
	Index int64
	Count int64
	TopK  []Match
}

// pushdownElemSize reports whether the operators are defined for an element
// size (little-endian unsigned integer widths).
func pushdownElemSize(es int64) bool {
	return es == 1 || es == 2 || es == 4 || es == 8
}

// ScanPartition executes a predicate scan over the partition at coord/sub of
// view v entirely inside the STL. It rides ReadPartitionSegments — the same
// QoS admission (the tenant is charged the partition bytes read, not the
// result bytes), the same plan phase, the same prefetch hook — so the device
// sees identical operations at identical times as a read of the same
// partition; only the host-visible payload differs. On a phantom device the
// scan sees all zeros, exactly as a read would return.
func (t *STL) ScanPartition(at sim.Time, v *View, coord, sub []int64, q ScanQuery) (ScanResult, sim.Time, RequestStats, error) {
	es := int64(v.Space().ElemSize())
	if !pushdownElemSize(es) {
		return ScanResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown scan over %d-byte elements: %w", es, ErrInvalid)
	}
	if q.Cursor < 0 || q.Pred.Lo > q.Pred.Hi {
		return ScanResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown scan query (cursor %d, range [%d,%d]): %w", q.Cursor, q.Pred.Lo, q.Pred.Hi, ErrInvalid)
	}
	var res ScanResult
	done, stats, err := t.ReadPartitionSegments(at, v, coord, sub, func(want int64, segs []Segment) error {
		res = scanSegments(want, es, segs, q)
		return nil
	})
	if err != nil {
		return ScanResult{}, done, stats, err
	}
	return res, done, stats, nil
}

// ReducePartition executes a block-level reduction over the partition at
// coord/sub of view v inside the STL, with the same admission, timing, and
// stats contract as ScanPartition.
func (t *STL) ReducePartition(at sim.Time, v *View, coord, sub []int64, q ReduceQuery) (ReduceResult, sim.Time, RequestStats, error) {
	es := int64(v.Space().ElemSize())
	if !pushdownElemSize(es) {
		return ReduceResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown reduce over %d-byte elements: %w", es, ErrInvalid)
	}
	switch q.Kind {
	case ReduceSum, ReduceCount, ReduceMin, ReduceMax:
	case ReduceTopK:
		if q.K < 1 {
			return ReduceResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown top-k with k=%d: %w", q.K, ErrInvalid)
		}
	default:
		return ReduceResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown reduce kind %d: %w", uint8(q.Kind), ErrInvalid)
	}
	if q.Pred != nil && q.Pred.Lo > q.Pred.Hi {
		return ReduceResult{}, at, RequestStats{}, fmt.Errorf("stl: pushdown reduce range [%d,%d]: %w", q.Pred.Lo, q.Pred.Hi, ErrInvalid)
	}
	var res ReduceResult
	done, stats, err := t.ReadPartitionSegments(at, v, coord, sub, func(want int64, segs []Segment) error {
		res = reduceSegments(want, es, segs, q)
		return nil
	})
	if err != nil {
		return ReduceResult{}, done, stats, err
	}
	return res, done, stats, nil
}

// walkRuns makes one pass over a segment list describing want bytes of
// es-byte elements and hands a kernel every element, in ascending index order
// and exactly once, through two calls: run consumes the whole elements of src,
// at least one and at most runElems, the first at index base; zeros consumes
// n > 0 zero elements from index base in time independent of n (bounded by
// what the kernel must emit). Whole elements inside one segment are runs
// aliasing the segment's bytes; elements no segment overlaps (gaps, and all of
// a phantom device's nil list) are zero runs; and the rare element that
// crosses a segment edge — boundaries need not be element-aligned — is
// assembled byte-wise, absent bytes zero, as a one-element run. The kernel is
// its two method values, not an interface, behind which it would escape to
// the heap: an allocation an operation.
func walkRuns(want, es int64, segs []Segment, run func(base int64, src []byte), zeros func(base, n int64)) {
	shift := bits.TrailingZeros64(uint64(es)) // es is a power of two
	n := want >> shift
	i := int64(0) // next element to deliver; bytes before i*es are consumed
	for si := 0; si < len(segs) && i < n; {
		s := segs[si]
		off := i * es
		lo, hi := s.Dst, s.Dst+int64(len(s.Src))
		switch {
		case hi <= off:
			si++
		case lo >= off+es:
			// Whole elements of gap before the segment's first element.
			j := min(lo>>shift, n)
			zeros(i, j-i)
			i = j
		case lo <= off && off+es <= hi:
			m := min(runElems, (hi-off)>>shift, n-i)
			run(i, s.Src[off-lo:off-lo+m*es])
			i += m
		default:
			// Element i starts before the segment or ends past it.
			var elem [8]byte
			for sj := si; sj < len(segs) && segs[sj].Dst < off+es; sj++ {
				t := segs[sj]
				for b := max(t.Dst, off); b < min(t.Dst+int64(len(t.Src)), off+es); b++ {
					elem[b-off] = t.Src[b-t.Dst]
				}
			}
			run(i, elem[:es])
			i++
		}
	}
	if i < n {
		zeros(i, n-i)
	}
}

// laneRange is a predicate clamped to one element width: the inclusive range
// [lo, hi], hi no larger than the width's largest value, or empty (lo > hi).
type laneRange struct{ lo, hi uint64 }

var emptyRange = laneRange{1, 0}

// clampRange clamps p to es-byte elements; nil admits every value. Hi is cut
// to the width's largest value, which leaves a Lo above it with the empty
// range. (As a span that is min(Hi-Lo, top-Lo): min(Hi-Lo, top) would let
// zeros wrap into [1, 2^64-1].)
func clampRange(p *Predicate, es int64) laneRange {
	top := ^uint64(0) >> (64 - 8*uint(es))
	if p == nil {
		return laneRange{0, top}
	}
	return laneRange{p.Lo, min(p.Hi, top)}
}

// matchBufs recycles scan accumulation buffers: a scan appends into one and
// copies the matches out once at exact size, so append's growth garbage is
// paid once per buffer, not once per scan. A buffer grown past
// maxPooledMatches (8 MiB) is not taken back: one dense scan of a large
// partition does not park 16 bytes an element in the pool.
var matchBufs = sync.Pool{New: func() any { return new([]Match) }}

const maxPooledMatches = 1 << 19

// scanSegments is the pure scan kernel over a planned segment list.
func scanSegments(want, es int64, segs []Segment, q ScanQuery) ScanResult {
	buf := matchBufs.Get().(*[]Match)
	k := scanKernel{matcher: matcher{es: int(es)}, r: clampRange(&q.Pred, es), cursor: q.Cursor, max: q.Max, next: -1, out: (*buf)[:0]}
	walkRuns(want, es, segs, k.run, k.zeros)
	res := ScanResult{Total: k.total, NextCursor: k.next}
	if out := k.out; len(out) > 0 {
		// make and copy between locals compile to one allocation, not zeroed.
		m := make([]Match, len(out))
		copy(m, out)
		res.Matches = m
	}
	if cap(k.out) <= maxPooledMatches {
		*buf = k.out
	}
	matchBufs.Put(buf)
	return res
}

type scanKernel struct {
	matcher
	r      laneRange
	cursor int64
	max    int
	total  int64
	next   int64
	out    []Match
}

func (k *scanKernel) run(base int64, src []byte) {
	found := k.match(src, k.r)
	if found == 0 {
		return
	}
	k.total += int64(found)
	hits := k.list()
	for len(hits) > 0 && base+int64(hits[0]) < k.cursor {
		hits = hits[1:]
	}
	if room := k.max - len(k.out); k.max > 0 && len(hits) > room {
		if k.next < 0 {
			k.next = base + int64(hits[room])
		}
		hits = hits[:room]
	}
	out, es := k.out, k.es
	for _, i := range hits {
		out = append(out, Match{Index: base + int64(i), Value: elem(src, es, int(i))})
	}
	k.out = out
}

func (k *scanKernel) zeros(base, n int64) {
	if k.r.lo != 0 {
		return
	}
	k.total += n
	i, end := max(base, k.cursor), base+n
	for ; i < end && (k.max <= 0 || len(k.out) < k.max); i++ {
		k.out = append(k.out, Match{Index: i})
	}
	if i < end && k.next < 0 {
		k.next = i
	}
}

// reduceSegments is the pure reduction kernel over a planned segment list.
// The predicate gates every kind: only matching elements participate.
func reduceSegments(want, es int64, segs []Segment, q ReduceQuery) ReduceResult {
	res := ReduceResult{Index: -1}
	r, m := clampRange(q.Pred, es), matcher{es: int(es)}
	switch q.Kind {
	case ReduceSum, ReduceCount:
		k := sumKernel{matcher: m, r: r, all: q.Pred == nil, countOnly: q.Kind == ReduceCount}
		if k.all && k.countOnly {
			k.r.lo, k.all = 1, false // nonzero
		}
		walkRuns(want, es, segs, k.run, k.zeros)
		res.Value, res.Count = k.sum, k.n
		if k.countOnly {
			res.Value = uint64(k.n)
		}
	case ReduceMin, ReduceMax:
		k := extremumKernel{matcher: m, pred: r, gated: q.Pred != nil, want: r, max: q.Kind == ReduceMax, idx: -1}
		walkRuns(want, es, segs, k.run, k.zeros)
		res.Count = k.n
		if k.idx >= 0 {
			res.Value, res.Index = k.best, k.idx
		}
	case ReduceTopK:
		// No more than every element can be kept, whatever K asks for.
		k := topK{matcher: m, r: r, heap: make([]Match, 0, min(int64(q.K), want/es))}
		walkRuns(want, es, segs, k.run, k.zeros)
		res.TopK = k.sorted()
		res.Count = int64(len(res.TopK))
		if len(res.TopK) > 0 {
			res.Value, res.Index = res.TopK[0].Value, res.TopK[0].Index
		}
	}
	return res
}

// sumKernel sums and counts the matching elements (wrapping arithmetic), or
// only counts them.
type sumKernel struct {
	matcher
	r         laneRange
	all       bool // no predicate: sum without classifying
	countOnly bool
	sum       uint64
	n         int64
}

func (k *sumKernel) run(_ int64, src []byte) {
	if k.all {
		k.sum, k.n = k.sum+sumAll(src, k.es), k.n+int64(count(src, k.es))
		return
	}
	found := k.match(src, k.r)
	k.n += int64(found)
	switch {
	case k.countOnly || found == 0:
	case found == k.elems:
		k.sum += sumAll(src, k.es)
	default:
		for _, i := range k.list() {
			k.sum += elem(src, k.es, int(i))
		}
	}
}

func (k *sumKernel) zeros(_, n int64) {
	if k.r.lo == 0 {
		k.n += n
	}
}

// extremumKernel finds the minimum (or maximum) matching element and the
// first index attaining it. Only a strictly better value can replace the one
// it has, so want narrows to those values; without a predicate the classifier
// is given want and rejects the rest. With one, Count is the predicate's
// matches, so every one of them has to be found.
type extremumKernel struct {
	matcher
	pred  laneRange
	gated bool      // there is a predicate
	want  laneRange // the values that would replace best
	max   bool
	best  uint64
	idx   int64 // -1 until an element matched
	n     int64
}

func (k *extremumKernel) run(base int64, src []byte) {
	find := k.want
	if k.gated {
		find = k.pred
	}
	found := k.match(src, find)
	if k.gated {
		k.n += int64(found)
	} else {
		k.n += int64(count(src, k.es))
	}
	if found == 0 {
		return
	}
	for _, i := range k.list() {
		// want may have narrowed since the run was classified.
		if v := elem(src, k.es, int(i)); v >= k.want.lo && v <= k.want.hi {
			k.accept(base+int64(i), v)
		}
	}
}

func (k *extremumKernel) zeros(base, n int64) {
	if k.pred.lo != 0 {
		return
	}
	k.n += n
	if k.want.lo == 0 {
		k.accept(base, 0)
	}
}

func (k *extremumKernel) accept(i int64, v uint64) {
	k.best, k.idx = v, i
	switch {
	case k.max && v < ^uint64(0):
		k.want.lo = v + 1
	case !k.max && v > 0:
		k.want.hi = v - 1
	default:
		k.want = emptyRange
	}
}

// topK keeps the best (value desc, index asc on ties) matching elements seen
// so far, at most cap(heap) of them, in a min-heap whose root is the current
// worst keeper. Elements arrive in ascending index order, so once the heap is
// full one that only ties the root is worse than it: r narrows to the values
// above the root, and the classifier rejects the rest.
type topK struct {
	matcher
	r    laneRange
	heap []Match
}

// worse orders keepers: a is evicted before b when a's value is smaller, or
// equal with a larger index.
func worse(a, b Match) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Index > b.Index
}

func (t *topK) run(base int64, src []byte) {
	if t.match(src, t.r) == 0 {
		return
	}
	for _, i := range t.list() {
		// The floor may have risen since the run was classified.
		if v := elem(src, t.es, int(i)); v >= t.r.lo {
			t.offer(base+int64(i), v)
			t.narrow()
		}
	}
}

// narrow raises r above the root of a full heap.
func (t *topK) narrow() {
	if len(t.heap) < cap(t.heap) {
		return
	}
	if floor := t.heap[0].Value; floor == ^uint64(0) {
		t.r = emptyRange
	} else {
		t.r.lo = max(t.r.lo, floor+1)
	}
}

// zeros keeps zeros only while the heap has room: a zero never exceeds the
// floor of a full heap.
func (t *topK) zeros(base, n int64) {
	if t.r.lo != 0 {
		return
	}
	for i := base; i < base+n && len(t.heap) < cap(t.heap); i++ {
		t.offer(i, 0)
	}
	t.narrow()
}

func (t *topK) offer(i int64, v uint64) {
	m := Match{Index: i, Value: v}
	if len(t.heap) < cap(t.heap) {
		t.heap = append(t.heap, m)
		for c := len(t.heap) - 1; c > 0; {
			p := (c - 1) / 2
			if !worse(t.heap[c], t.heap[p]) {
				break
			}
			t.heap[c], t.heap[p] = t.heap[p], t.heap[c]
			c = p
		}
		return
	}
	if !worse(t.heap[0], m) {
		return
	}
	t.heap[0] = m
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(t.heap) {
			break
		}
		if c+1 < len(t.heap) && worse(t.heap[c+1], t.heap[c]) {
			c++
		}
		if !worse(t.heap[c], t.heap[p]) {
			break
		}
		t.heap[c], t.heap[p] = t.heap[p], t.heap[c]
		p = c
	}
}

// sorted orders the keepers in place by descending value, then ascending
// index, and returns them (nil when nothing was kept); the heap is spent
// afterwards.
func (t *topK) sorted() []Match {
	if len(t.heap) == 0 {
		return nil
	}
	slices.SortFunc(t.heap, func(a, b Match) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	return t.heap
}
