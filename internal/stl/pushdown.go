package stl

import (
	"encoding/binary"
	"fmt"
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

func (p Predicate) matches(v uint64) bool { return v >= p.Lo && v <= p.Hi }

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

// kernel consumes a partition as the run walker delivers it: elements in
// ascending index order, each exactly once, as either a run of whole
// little-endian elements or a run of zeros.
type kernel interface {
	// run consumes len(src)/es consecutive elements starting at index base.
	// len(src) is a positive multiple of the element size.
	run(base int64, src []byte)
	// zeros consumes n > 0 consecutive zero elements starting at index base
	// in time independent of n (bounded by what the kernel must emit).
	zeros(base, n int64)
}

// walkRuns makes one pass over a segment list describing want bytes of
// es-byte elements and hands the kernel everything it covers, in index order:
// whole elements lying inside one segment as a single run aliasing the
// segment's bytes, elements no segment overlaps (gaps between segments, and
// all of a phantom device's nil list) as zero runs, and the rare element that
// crosses a segment edge — the segments' boundaries need not be
// element-aligned — assembled byte-wise, absent bytes zero, as a one-element
// run.
func walkRuns(want, es int64, segs []Segment, k kernel) {
	n := want / es
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
			j := min64(lo/es, n)
			k.zeros(i, j-i)
			i = j
		case lo <= off && off+es <= hi:
			m := min64((hi-off)/es, n-i)
			k.run(i, s.Src[off-lo:off-lo+m*es])
			i += m
		default:
			// Element i starts before the segment or ends past it.
			var elem [8]byte
			for sj := si; sj < len(segs) && segs[sj].Dst < off+es; sj++ {
				t := segs[sj]
				for b := max64(t.Dst, off); b < min64(t.Dst+int64(len(t.Src)), off+es); b++ {
					elem[b-off] = t.Src[b-t.Dst]
				}
			}
			k.run(i, elem[:es])
			i++
		}
	}
	if i < n {
		k.zeros(i, n-i)
	}
}

// valueRange is a predicate hoisted for the inner loops: v matches iff
// v-lo <= span, one unsigned compare (v < lo wraps above any span).
type valueRange struct{ lo, span uint64 }

// rangeOf hoists p; a nil predicate admits every value.
func rangeOf(p *Predicate) valueRange {
	if p == nil {
		return valueRange{0, ^uint64(0)}
	}
	return valueRange{p.Lo, p.Hi - p.Lo}
}

func (r valueRange) matchesZero() bool { return r.lo == 0 }

// matchBufs recycles scan accumulation buffers: a scan appends into one and
// copies the matches out once at exact size, so append's growth garbage is
// paid once per buffer, not once per scan.
var matchBufs = sync.Pool{New: func() any { return new([]Match) }}

// scanSegments is the pure scan kernel over a planned segment list.
func scanSegments(want, es int64, segs []Segment, q ScanQuery) ScanResult {
	buf := matchBufs.Get().(*[]Match)
	k := scanKernel{es: es, valueRange: rangeOf(&q.Pred), cursor: q.Cursor, max: q.Max, next: -1, out: (*buf)[:0]}
	walkRuns(want, es, segs, &k)
	res := ScanResult{Total: k.total, NextCursor: k.next}
	if len(k.out) > 0 {
		res.Matches = make([]Match, len(k.out))
		copy(res.Matches, k.out)
	}
	*buf = k.out
	matchBufs.Put(buf)
	return res
}

type scanKernel struct {
	es int64
	valueRange
	cursor int64
	max    int
	total  int64
	next   int64
	out    []Match
}

func (k *scanKernel) run(base int64, src []byte) {
	lo, span := k.lo, k.span
	switch i := base; k.es {
	case 1:
		for _, b := range src {
			if v := uint64(b); v-lo <= span {
				k.hit(i, v)
			}
			i++
		}
	case 2:
		for ; len(src) >= 2; src = src[2:] {
			if v := uint64(binary.LittleEndian.Uint16(src)); v-lo <= span {
				k.hit(i, v)
			}
			i++
		}
	case 4:
		for ; len(src) >= 4; src = src[4:] {
			if v := uint64(binary.LittleEndian.Uint32(src)); v-lo <= span {
				k.hit(i, v)
			}
			i++
		}
	case 8:
		for ; len(src) >= 8; src = src[8:] {
			if v := binary.LittleEndian.Uint64(src); v-lo <= span {
				k.hit(i, v)
			}
			i++
		}
	}
}

// hit records one matching element. It stays out of line so the run loops
// above are a load, a compare and a not-taken branch per element; left to the
// inliner (it fits the budget) the loops run 1.7x slower at 1 % selectivity.
//
//go:noinline
func (k *scanKernel) hit(i int64, v uint64) {
	k.total++
	if i < k.cursor {
		return
	}
	if k.max > 0 && len(k.out) >= k.max {
		if k.next < 0 {
			k.next = i
		}
		return
	}
	k.out = append(k.out, Match{Index: i, Value: v})
}

func (k *scanKernel) zeros(base, n int64) {
	if !k.matchesZero() {
		return
	}
	k.total += n
	i, end := max64(base, k.cursor), base+n
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
	r := rangeOf(q.Pred)
	switch q.Kind {
	case ReduceSum:
		k := sumKernel{es: es, valueRange: r}
		walkRuns(want, es, segs, &k)
		res.Value, res.Count = k.sum, k.n
	case ReduceCount:
		if q.Pred == nil {
			r = valueRange{1, ^uint64(0) - 1} // nonzero
		}
		k := sumKernel{es: es, valueRange: r}
		walkRuns(want, es, segs, &k)
		res.Value, res.Count = uint64(k.n), k.n
	case ReduceMin, ReduceMax:
		k := extremumKernel{es: es, valueRange: r, idx: -1}
		if q.Kind == ReduceMax {
			k.flip = ^uint64(0)
		}
		walkRuns(want, es, segs, &k)
		res.Count = k.n
		if k.n > 0 {
			res.Value, res.Index = k.key^k.flip, k.idx
		}
	case ReduceTopK:
		// No more than every element can be kept, whatever K asks for.
		k := topK{es: es, valueRange: r, heap: make([]Match, 0, min64(int64(q.K), want/es))}
		walkRuns(want, es, segs, &k)
		res.TopK = k.sorted()
		res.Count = int64(len(res.TopK))
		if len(res.TopK) > 0 {
			res.Value, res.Index = res.TopK[0].Value, res.TopK[0].Index
		}
	}
	return res
}

// sumKernel sums and counts the matching elements (wrapping arithmetic);
// ReduceCount is its count alone.
type sumKernel struct {
	es int64
	valueRange
	sum uint64
	n   int64
}

func (k *sumKernel) run(_ int64, src []byte) {
	lo, span, sum, n := k.lo, k.span, k.sum, k.n
	switch k.es {
	case 1:
		for _, b := range src {
			if v := uint64(b); v-lo <= span {
				sum, n = sum+v, n+1
			}
		}
	case 2:
		for ; len(src) >= 2; src = src[2:] {
			if v := uint64(binary.LittleEndian.Uint16(src)); v-lo <= span {
				sum, n = sum+v, n+1
			}
		}
	case 4:
		for ; len(src) >= 4; src = src[4:] {
			if v := uint64(binary.LittleEndian.Uint32(src)); v-lo <= span {
				sum, n = sum+v, n+1
			}
		}
	case 8:
		for ; len(src) >= 8; src = src[8:] {
			if v := binary.LittleEndian.Uint64(src); v-lo <= span {
				sum, n = sum+v, n+1
			}
		}
	}
	k.sum, k.n = sum, n
}

func (k *sumKernel) zeros(_, n int64) {
	if k.matchesZero() {
		k.n += n
	}
}

// extremumKernel finds the minimum matching element and the first index
// attaining it. Elements are compared as key = v ^ flip: flip 0 orders keys
// as values (min), flip ^0 reverses the order (max), so one strict compare
// serves both and ties keep the earlier index either way.
type extremumKernel struct {
	es int64
	valueRange
	flip uint64
	key  uint64 // smallest key so far; meaningful once idx >= 0
	idx  int64
	n    int64
}

func (k *extremumKernel) run(base int64, src []byte) {
	lo, span, flip, n := k.lo, k.span, k.flip, k.n
	best, idx := k.key, k.idx
	switch i := base; k.es {
	case 1:
		for _, b := range src {
			if v := uint64(b); v-lo <= span {
				n++
				if key := v ^ flip; key < best || idx < 0 {
					best, idx = key, i
				}
			}
			i++
		}
	case 2:
		for ; len(src) >= 2; src = src[2:] {
			if v := uint64(binary.LittleEndian.Uint16(src)); v-lo <= span {
				n++
				if key := v ^ flip; key < best || idx < 0 {
					best, idx = key, i
				}
			}
			i++
		}
	case 4:
		for ; len(src) >= 4; src = src[4:] {
			if v := uint64(binary.LittleEndian.Uint32(src)); v-lo <= span {
				n++
				if key := v ^ flip; key < best || idx < 0 {
					best, idx = key, i
				}
			}
			i++
		}
	case 8:
		for ; len(src) >= 8; src = src[8:] {
			if v := binary.LittleEndian.Uint64(src); v-lo <= span {
				n++
				if key := v ^ flip; key < best || idx < 0 {
					best, idx = key, i
				}
			}
			i++
		}
	}
	k.key, k.idx, k.n = best, idx, n
}

func (k *extremumKernel) zeros(base, n int64) {
	if !k.matchesZero() {
		return
	}
	k.n += n
	if k.flip < k.key || k.idx < 0 {
		k.key, k.idx = k.flip, base
	}
}

// topK keeps the best (value desc, index asc on ties) matching elements seen
// so far, at most cap(heap) of them, in a min-heap whose root is the current
// worst keeper.
type topK struct {
	es int64
	valueRange
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

// floor is the value an element must exceed to be kept once the heap is
// full: elements arrive in ascending index order, so one that only ties the
// root is worse than it. Until the heap fills every match is kept.
func (t *topK) floor() (v uint64, full bool) {
	if len(t.heap) < cap(t.heap) {
		return 0, false
	}
	return t.heap[0].Value, true
}

func (t *topK) run(base int64, src []byte) {
	lo, span := t.lo, t.span
	floor, full := t.floor()
	switch i := base; t.es {
	case 1:
		for _, b := range src {
			if v := uint64(b); v-lo <= span && (v > floor || !full) {
				t.offer(i, v)
				floor, full = t.floor()
			}
			i++
		}
	case 2:
		for ; len(src) >= 2; src = src[2:] {
			if v := uint64(binary.LittleEndian.Uint16(src)); v-lo <= span && (v > floor || !full) {
				t.offer(i, v)
				floor, full = t.floor()
			}
			i++
		}
	case 4:
		for ; len(src) >= 4; src = src[4:] {
			if v := uint64(binary.LittleEndian.Uint32(src)); v-lo <= span && (v > floor || !full) {
				t.offer(i, v)
				floor, full = t.floor()
			}
			i++
		}
	case 8:
		for ; len(src) >= 8; src = src[8:] {
			if v := binary.LittleEndian.Uint64(src); v-lo <= span && (v > floor || !full) {
				t.offer(i, v)
				floor, full = t.floor()
			}
			i++
		}
	}
}

// zeros keeps zeros only while the heap has room: a zero never exceeds the
// floor of a full heap.
func (t *topK) zeros(base, n int64) {
	if !t.matchesZero() {
		return
	}
	for i := base; i < base+n && len(t.heap) < cap(t.heap); i++ {
		t.offer(i, 0)
	}
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
