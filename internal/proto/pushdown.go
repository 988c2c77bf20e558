package proto

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// Pushdown wire format (opcodes 0xCE pushdown_scan, 0xCF pushdown_reduce).
//
// Both request payloads extend the read/write coordinate page: the standard
// CoordPayload prefix (uint32 rank, rank x (uint32 coord, uint32 sub))
// followed by operator parameters at offset 4+8*rank. Both results are a
// header plus their matches or top-k entries coded by one Layout: the
// indexes as an Elias–Fano code, then the values, bounded to one 4 KB page
// and exactly as long as what they hold; a host decodes one under the
// request it sent. A scan truncates to fit like
// get_tenant_stats: the true totals travel in the header and the
// completion's result words (Result0 = true total / primary scalar), and a
// truncated scan is resumable by passing the returned cursor as the next
// request's Cursor.

// Reduce operator wire codes. These mirror stl.ReduceKind's values and must
// stay stable on the wire.
const (
	ReduceOpSum uint8 = 1 + iota
	ReduceOpCount
	ReduceOpMin
	ReduceOpMax
	ReduceOpTopK
)

// ScanCursorNone is the wire encoding of "scan complete, no cursor" in
// Completion.Result1 and ScanResultPayload.NextCursor.
const ScanCursorNone = ^uint64(0)

// scanParamLen is the byte length of the scan parameters that follow the
// coordinate prefix: lo, hi, cursor (uint64 each) and max (uint32).
const scanParamLen = 8 + 8 + 8 + 4

// reduceParamLen is the byte length of the reduce parameters that follow the
// coordinate prefix: op, hasPred, 2 pad bytes, k (uint32), lo, hi (uint64).
const reduceParamLen = 1 + 1 + 2 + 4 + 8 + 8

// ScanPayload is the request page of a pushdown_scan command.
type ScanPayload struct {
	Coord, Sub []int64
	// Lo, Hi is the inclusive unsigned value range to match.
	Lo, Hi uint64
	// Cursor is the first element index eligible to be reported (0 starts a
	// scan; a truncated response's NextCursor resumes it).
	Cursor int64
	// Max bounds the reported matches; 0 fills the result page (the
	// layout's Capacity). Larger values are clamped by the device — the page
	// cannot carry more.
	Max uint32
}

// Marshal encodes the payload into a fresh 4 KB page: the CoordPayload
// prefix, then lo, hi, cursor, max.
func (p ScanPayload) Marshal() ([]byte, error) {
	out := make([]byte, PageSize)
	if err := p.encode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalInto encodes the payload into page under CoordPayload.MarshalInto's
// contract.
func (p ScanPayload) MarshalInto(page []byte) error {
	clear(page[:PageSize])
	return p.encode(page)
}

func (p ScanPayload) encode(page []byte) error {
	if err := (CoordPayload{Coord: p.Coord, Sub: p.Sub}).encode(page); err != nil {
		return err
	}
	if p.Cursor < 0 || p.Cursor > 1<<62 {
		return fmt.Errorf("proto: scan cursor %d out of range", p.Cursor)
	}
	if p.Lo > p.Hi {
		return fmt.Errorf("proto: scan range [%d,%d] inverted", p.Lo, p.Hi)
	}
	off := 4 + 8*len(p.Coord)
	binary.LittleEndian.PutUint64(page[off:], p.Lo)
	binary.LittleEndian.PutUint64(page[off+8:], p.Hi)
	binary.LittleEndian.PutUint64(page[off+16:], uint64(p.Cursor))
	binary.LittleEndian.PutUint32(page[off+24:], p.Max)
	return nil
}

// UnmarshalScanPayload decodes a pushdown_scan page.
func UnmarshalScanPayload(page []byte) (ScanPayload, error) {
	cp, err := UnmarshalCoordPayload(page)
	if err != nil {
		return ScanPayload{}, err
	}
	off := 4 + 8*len(cp.Coord)
	if len(page) < off+scanParamLen {
		return ScanPayload{}, fmt.Errorf("proto: scan page truncated")
	}
	p := ScanPayload{
		Coord: cp.Coord,
		Sub:   cp.Sub,
		Lo:    binary.LittleEndian.Uint64(page[off:]),
		Hi:    binary.LittleEndian.Uint64(page[off+8:]),
		Max:   binary.LittleEndian.Uint32(page[off+24:]),
	}
	cur := binary.LittleEndian.Uint64(page[off+16:])
	if cur > 1<<62 {
		return ScanPayload{}, fmt.Errorf("proto: scan cursor %d out of range", cur)
	}
	p.Cursor = int64(cur)
	if p.Lo > p.Hi {
		return ScanPayload{}, fmt.Errorf("proto: scan range [%d,%d] inverted", p.Lo, p.Hi)
	}
	return p, nil
}

// ScanMatch is one reported scan hit (also the top-k entry format): the
// element's row-major index within the scanned partition and its value.
type ScanMatch struct {
	Index int64
	Value uint64
}

// Layout is the record layout of a pushdown result, implied by the request
// alone. A result's records travel sorted by index, in two parts: first the
// indexes, as one Elias–Fano code over the requested partition's Elems
// elements, then the values in the same order, each less Lo in Value bits.
// The code of n indexes keeps L = ⌊log2(Elems/n)⌋ low bits of each, packed
// one after another, and then the high parts (index >> L) in unary: a 1 per
// record in each bucket of high part 0 … ⌊(Elems−1)/2^L⌋, consecutive buckets
// separated by a 0, so n ones and ⌊(Elems−1)/2^L⌋ zeros. Its
// n·(L+1) + ⌊(Elems−1)/2^L⌋ bits depend on (n, Elems) alone, so a result's
// length is a function of its record count. Everything is packed
// least-significant bit first with nothing between the parts, and only the
// last byte is padded, with zeros. Value is the fewest bits that span the
// values the request can match, bits.Len64(min(hi, the element's max) − lo)
// — the element's full width when there is no predicate (lo 0). L and Value
// travel in the result header, and the host takes Lo and Elems from the
// request it sent, so it decodes a result without knowing the element size.
type Layout struct {
	Value int    // bits a value takes, 0..64
	Lo    uint64 // a record's value field carries value − Lo
	// Elems is the requested partition's element count (at most 2^62):
	// every index lies below it, and no result holds more records.
	Elems int64
}

const (
	maxElems = 1 << 62   // the largest partition a layout names
	maxCount = 1<<32 - 1 // a result header's record count field
)

// LayoutFor is the layout of results over a partition of sub's shape holding
// elemSize-byte elements, for a request matching values in [lo, hi] (a
// request without a predicate passes 0 and ^uint64(0)). The shape is the
// requested one, before an edge of the space clamps it, so the host and the
// device know the layout from the request alone, before the scan runs. A
// range that no element can hold (lo above the element's max) takes 0-bit
// values.
func LayoutFor(elemSize int, sub []int64, lo, hi uint64) Layout {
	l := Layout{Lo: lo, Elems: 1}
	for _, d := range sub {
		if d <= 0 {
			l.Elems = 0 // no elements: the request fails its bounds check
			break
		}
		if l.Elems > maxElems/d {
			l.Elems = maxElems
		} else {
			l.Elems *= d
		}
	}
	if top := min(hi, elemMax(elemSize)); top >= lo {
		l.Value = bits.Len64(top - lo)
	}
	return l
}

// lowBits is L, the low bits each of n indexes keeps in an Elias–Fano code
// over elems elements: ⌊log2(elems/n)⌋, and 0 for no records or for no
// fewer records than elements. The result header carries it, and a decoder
// refuses any other value.
func lowBits(elems, n int64) int {
	if n <= 0 || elems <= n {
		return 0
	}
	return bits.Len64(uint64(elems/n)) - 1
}

// indexBits is the length of the code of n indexes: n low parts of L bits
// and n ones, then ⌊(Elems−1)/2^L⌋ zeros; nothing for no records.
func (l Layout) indexBits(n int64) int64 {
	if n <= 0 {
		return 0
	}
	low := lowBits(l.Elems, n)
	return n*int64(low+1) + max(l.Elems-1, 0)>>low
}

// elemMax is the largest value an elemSize-byte element holds.
func elemMax(elemSize int) uint64 {
	switch {
	case elemSize <= 0:
		return 0
	case elemSize >= 8:
		return ^uint64(0)
	}
	return 1<<(8*elemSize) - 1
}

// headerLen is the length of op's result header.
func headerLen(op Opcode) int64 {
	switch op {
	case OpScan:
		return scanHeaderLen
	case OpReduce:
		return reduceHeaderLen
	}
	panic(fmt.Sprintf("proto: %v returns no pushdown result", op))
}

// ResultSize is the wire length of op's result (OpScan or OpReduce) holding
// records matches or top-k entries: the header plus the index code and the
// values, rounded up to a byte. It is the one statement of a result's size:
// the encoders, the device's clamp on a scan's matches and the simulator's
// link charge all use it.
func (l Layout) ResultSize(op Opcode, records int64) int64 {
	return headerLen(op) + (l.indexBits(records)+records*int64(l.Value)+7)/8
}

// Capacity is the largest number of records whose result (ResultSize) fits
// one page of op's result, capped at the partition's elements and at the
// header's count field. ResultSize grows with the count — where L drops by
// one, the zeros the high parts gain outweigh the low bits they lose — so
// every smaller count fits too.
func (l Layout) Capacity(op Opcode) int {
	return sort.Search(int(min(max(l.Elems, 0), maxCount)), func(n int) bool {
		return l.ResultSize(op, int64(n)+1) > PageSize
	})
}

func (l Layout) valid() bool {
	return l.Elems >= 0 && l.Elems <= maxElems && l.Value >= 0 && l.Value <= 64
}

// putMatches writes ms, whose indexes must ascend strictly, as l's records
// from out[0], which must be zeroed, refusing an entry the layout cannot
// hold.
func (l Layout) putMatches(out []byte, ms []ScanMatch, what string) error {
	n := len(ms)
	low := lowBits(l.Elems, int64(n))
	high, vals := n*low, int(l.indexBits(int64(n)))
	for i, m := range ms {
		if m.Index < 0 || m.Index >= l.Elems {
			return fmt.Errorf("proto: %s %d index %d outside a partition of %d elements", what, i, m.Index, l.Elems)
		}
		if i > 0 && m.Index <= ms[i-1].Index {
			return fmt.Errorf("proto: %s %d index %d does not follow %d", what, i, m.Index, ms[i-1].Index)
		}
		if m.Value < l.Lo || bits.Len64(m.Value-l.Lo) > l.Value {
			return fmt.Errorf("proto: %s %d value %#x is not %#x plus %d bits", what, i, m.Value, l.Lo, l.Value)
		}
		putBits(out, i*low, uint64(m.Index)&(1<<low-1), low)
		putBits(out, high+int(m.Index>>low)+i, 1, 1)
		putBits(out, vals+i*l.Value, m.Value-l.Lo, l.Value)
	}
	return nil
}

// matches decodes n records of l from page[0], in index order, refusing a
// set padding bit, high parts holding other than n ones, an index at or
// past Elems or not above the one before it, and a value field above span
// (the request's hi − lo). It allocates the n records and nothing more.
func (l Layout) matches(page []byte, n int, span uint64, what string) ([]ScanMatch, error) {
	if n == 0 {
		return nil, nil
	}
	low := lowBits(l.Elems, int64(n))
	high, vals := n*low, int(l.indexBits(int64(n)))
	if tail := (vals + n*l.Value) % 8; tail != 0 && page[len(page)-1]>>tail != 0 {
		return nil, fmt.Errorf("proto: %s padding bits set", what)
	}
	out := make([]ScanMatch, n)
	k := 0 // records decoded: the ones seen so far
	for pos := high; pos < vals; pos += 64 {
		for w := getBits(page, pos, min(64, vals-pos)); w != 0; w &= w - 1 {
			if k == n {
				return nil, fmt.Errorf("proto: %s high parts hold more than %d ones", what, n)
			}
			// The k-th one follows as many zeros as its high part's value.
			h := int64(pos + bits.TrailingZeros64(w) - high - k)
			idx := h<<low | int64(getBits(page, k*low, low))
			if idx >= l.Elems {
				return nil, fmt.Errorf("proto: %s %d index %d outside a partition of %d elements", what, k, idx, l.Elems)
			}
			if k > 0 && idx <= out[k-1].Index {
				return nil, fmt.Errorf("proto: %s %d index %d does not follow %d", what, k, idx, out[k-1].Index)
			}
			v := getBits(page, vals+k*l.Value, l.Value)
			if v > span {
				return nil, fmt.Errorf("proto: %s %d value %#x+%#x outside the requested range", what, k, l.Lo, v)
			}
			out[k] = ScanMatch{Index: idx, Value: l.Lo + v}
			k++
		}
	}
	if k != n {
		return nil, fmt.Errorf("proto: %s high parts hold %d ones, not %d", what, k, n)
	}
	return out, nil
}

// resultLayout reads the value width from a result header's width byte at
// page[off+1] and checks it against want, the layout the request implies at
// the widest element (the value may only be narrower), then checks count
// against its capacity before anything is allocated, the low-bit count at
// page[off] against the one count records take, and that page is exactly
// op's result of count records.
func resultLayout(page []byte, op Opcode, off, count int, want Layout, what string) (Layout, error) {
	l := want
	l.Value = int(page[off+1])
	if l.Value > want.Value {
		return l, fmt.Errorf("proto: %s result values of %d bits do not answer a request of values of at most %d bits", what, l.Value, want.Value)
	}
	if count > l.Capacity(op) {
		return l, fmt.Errorf("proto: %s count %d exceeds capacity %d", what, count, l.Capacity(op))
	}
	if low := lowBits(l.Elems, int64(count)); int(page[off]) != low {
		return l, fmt.Errorf("proto: %s result keeps %d low index bits, not the %d that %d records of %d elements take", what, page[off], low, count, l.Elems)
	}
	if size := l.ResultSize(op, int64(count)); int64(len(page)) != size {
		return l, fmt.Errorf("proto: %s result of %d records is %d bytes, not %d", what, count, len(page), size)
	}
	return l, nil
}

// requestLayout is the widest layout a device may answer a request over sub
// matching [lo, hi] in: an 8-byte element's, since a narrower element only
// narrows the value.
func requestLayout(sub []int64, lo, hi uint64) Layout {
	return LayoutFor(8, sub, lo, hi)
}

// putBits ORs the low n bits of v (whose higher bits must be zero) into b
// from bit pos on, least-significant bit first.
func putBits(b []byte, pos int, v uint64, n int) {
	for n > 0 {
		i, sh := pos>>3, pos&7
		b[i] |= byte(v << sh)
		w := min(8-sh, n)
		v >>= w
		pos += w
		n -= w
	}
}

// getBits reads n bits of b from bit pos on, least-significant bit first.
func getBits(b []byte, pos, n int) uint64 {
	var v uint64
	for got := 0; got < n; {
		i, sh := pos>>3, pos&7
		w := min(8-sh, n-got)
		v |= (uint64(b[i]>>sh) & (1<<w - 1)) << got
		pos += w
		got += w
	}
	return v
}

// scanHeaderLen is the scan result header: uint32 count, the low index bits
// L and the value width in bits (one byte each), two reserved bytes, uint64
// total, uint64 next-cursor.
const scanHeaderLen = 4 + 4 + 8 + 8

// ScanResultPayload is the result a pushdown_scan command returns. Total is
// the true match count over the whole partition regardless of truncation
// (also in Completion.Result0); NextCursor is the element index resuming a
// truncated scan, or -1 when Matches covers everything at or past the
// request cursor (Completion.Result1 carries it as ScanCursorNone).
type ScanResultPayload struct {
	Total      int64
	NextCursor int64
	Matches    []ScanMatch
}

// Marshal encodes the result in layout l: the header, then the matches,
// which must be in ascending index order, l.ResultSize(OpScan,
// len(p.Matches)) bytes in all.
func (p ScanResultPayload) Marshal(l Layout) ([]byte, error) {
	if !l.valid() {
		return nil, fmt.Errorf("proto: scan result layout %+v invalid", l)
	}
	if len(p.Matches) > l.Capacity(OpScan) {
		return nil, fmt.Errorf("proto: %d scan matches exceed capacity %d", len(p.Matches), l.Capacity(OpScan))
	}
	if p.Total < int64(len(p.Matches)) {
		return nil, fmt.Errorf("proto: scan total %d below match count %d", p.Total, len(p.Matches))
	}
	if p.NextCursor < -1 || p.NextCursor > 1<<62 {
		return nil, fmt.Errorf("proto: scan next-cursor %d out of range", p.NextCursor)
	}
	n := int64(len(p.Matches))
	out := make([]byte, l.ResultSize(OpScan, n))
	binary.LittleEndian.PutUint32(out, uint32(n))
	out[4], out[5] = byte(lowBits(l.Elems, n)), byte(l.Value)
	binary.LittleEndian.PutUint64(out[8:], uint64(p.Total))
	next := ScanCursorNone
	if p.NextCursor >= 0 {
		next = uint64(p.NextCursor)
	}
	binary.LittleEndian.PutUint64(out[16:], next)
	if err := l.putMatches(out[scanHeaderLen:], p.Matches, "scan match"); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalScanResultPayload decodes the result of req, the pushdown_scan
// request it answers: the request names the partition, so bounds the
// record count and the indexes, and its predicate gives the values' base.
func UnmarshalScanResultPayload(page []byte, req ScanPayload) (ScanResultPayload, error) {
	if req.Lo > req.Hi {
		return ScanResultPayload{}, fmt.Errorf("proto: scan range [%d,%d] inverted", req.Lo, req.Hi)
	}
	if len(page) < scanHeaderLen {
		return ScanResultPayload{}, fmt.Errorf("proto: scan result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page))
	l, err := resultLayout(page, OpScan, 4, count, requestLayout(req.Sub, req.Lo, req.Hi), "scan match")
	if err != nil {
		return ScanResultPayload{}, err
	}
	total := binary.LittleEndian.Uint64(page[8:])
	if total > 1<<62 || int64(total) < int64(count) {
		return ScanResultPayload{}, fmt.Errorf("proto: scan total %d invalid for %d matches", total, count)
	}
	p := ScanResultPayload{Total: int64(total), NextCursor: -1}
	if next := binary.LittleEndian.Uint64(page[16:]); next != ScanCursorNone {
		if next > 1<<62 {
			return ScanResultPayload{}, fmt.Errorf("proto: scan next-cursor %d out of range", next)
		}
		p.NextCursor = int64(next)
	}
	if p.Matches, err = l.matches(page[scanHeaderLen:], count, req.Hi-req.Lo, "scan match"); err != nil {
		return ScanResultPayload{}, err
	}
	return p, nil
}

// ReducePayload is the request page of a pushdown_reduce command.
type ReducePayload struct {
	Coord, Sub []int64
	// Op is the reduction operator (ReduceOp* wire codes).
	Op uint8
	// K bounds ReduceOpTopK's result (1..MaxReduceTopK); zero elsewhere.
	K uint32
	// HasPred gates the predicate: ReduceOpCount counts matches of [Lo, Hi]
	// when set, nonzero elements when clear.
	HasPred bool
	Lo, Hi  uint64
}

// Marshal encodes the payload into a fresh 4 KB page: the CoordPayload
// prefix, then op, hasPred, pad, k, lo, hi.
func (p ReducePayload) Marshal() ([]byte, error) {
	out := make([]byte, PageSize)
	if err := p.encode(out); err != nil {
		return nil, err
	}
	return out, nil
}

// MarshalInto encodes the payload into page under CoordPayload.MarshalInto's
// contract.
func (p ReducePayload) MarshalInto(page []byte) error {
	clear(page[:PageSize])
	return p.encode(page)
}

func (p ReducePayload) encode(page []byte) error {
	if err := (CoordPayload{Coord: p.Coord, Sub: p.Sub}).encode(page); err != nil {
		return err
	}
	if p.Op < ReduceOpSum || p.Op > ReduceOpTopK {
		return fmt.Errorf("proto: reduce op %d unknown", p.Op)
	}
	if p.Op == ReduceOpTopK {
		if p.K < 1 || p.K > MaxReduceTopK {
			return fmt.Errorf("proto: reduce top-k k=%d out of range [1,%d]", p.K, MaxReduceTopK)
		}
	} else if p.K != 0 {
		return fmt.Errorf("proto: reduce op %d does not take k", p.Op)
	}
	if p.HasPred && p.Lo > p.Hi {
		return fmt.Errorf("proto: reduce range [%d,%d] inverted", p.Lo, p.Hi)
	}
	off := 4 + 8*len(p.Coord)
	page[off] = p.Op
	if p.HasPred {
		page[off+1] = 1
	}
	binary.LittleEndian.PutUint32(page[off+4:], p.K)
	binary.LittleEndian.PutUint64(page[off+8:], p.Lo)
	binary.LittleEndian.PutUint64(page[off+16:], p.Hi)
	return nil
}

// UnmarshalReducePayload decodes a pushdown_reduce page.
func UnmarshalReducePayload(page []byte) (ReducePayload, error) {
	cp, err := UnmarshalCoordPayload(page)
	if err != nil {
		return ReducePayload{}, err
	}
	off := 4 + 8*len(cp.Coord)
	if len(page) < off+reduceParamLen {
		return ReducePayload{}, fmt.Errorf("proto: reduce page truncated")
	}
	p := ReducePayload{
		Coord:   cp.Coord,
		Sub:     cp.Sub,
		Op:      page[off],
		HasPred: page[off+1] != 0,
		K:       binary.LittleEndian.Uint32(page[off+4:]),
		Lo:      binary.LittleEndian.Uint64(page[off+8:]),
		Hi:      binary.LittleEndian.Uint64(page[off+16:]),
	}
	if p.Op < ReduceOpSum || p.Op > ReduceOpTopK {
		return ReducePayload{}, fmt.Errorf("proto: reduce op %d unknown", p.Op)
	}
	if p.Op == ReduceOpTopK {
		if p.K < 1 || p.K > MaxReduceTopK {
			return ReducePayload{}, fmt.Errorf("proto: reduce top-k k=%d out of range [1,%d]", p.K, MaxReduceTopK)
		}
	} else if p.K != 0 {
		return ReducePayload{}, fmt.Errorf("proto: reduce op %d does not take k", p.Op)
	}
	if p.HasPred && p.Lo > p.Hi {
		return ReducePayload{}, fmt.Errorf("proto: reduce range [%d,%d] inverted", p.Lo, p.Hi)
	}
	return p, nil
}

// ValueRange is the range of values the request's results lie in: its
// predicate, or every value when it has none.
func (p ReducePayload) ValueRange() (lo, hi uint64) {
	if p.HasPred {
		return p.Lo, p.Hi
	}
	return 0, ^uint64(0)
}

// reduceHeaderLen is the reduce result header: uint64 value, uint64 index,
// uint64 count, uint32 top-k count, the low index bits L and the value
// width in bits (one byte each), two reserved bytes.
const reduceHeaderLen = 8 + 8 + 8 + 4 + 4

// MaxReduceTopK is the largest top-k a request may ask for: what one page
// holds in the widest layout (2^62 elements and 64-bit values, so 53 low
// index bits at this count), and so what every layout's result fits
// (TestResultCapacities holds it to Layout.Capacity).
const MaxReduceTopK = 271

// ReduceResultPayload is the result a pushdown_reduce command returns. Value
// carries the scalar result (sum, count, min, max, or the top value; also in
// Completion.Result0), Index the first element attaining a min/max (-1
// elsewhere), Count the contributing-element count (Completion.Result1).
type ReduceResultPayload struct {
	Value uint64
	Index int64
	Count int64
	TopK  []ScanMatch
}

// Marshal encodes the result in layout l: the header, then the top-k
// entries, which must be in top-k order (value descending, ties by
// ascending index) and travel in index order, l.ResultSize(OpReduce,
// len(p.TopK)) bytes in all.
func (p ReduceResultPayload) Marshal(l Layout) ([]byte, error) {
	if !l.valid() {
		return nil, fmt.Errorf("proto: reduce result layout %+v invalid", l)
	}
	if len(p.TopK) > l.Capacity(OpReduce) {
		return nil, fmt.Errorf("proto: %d top-k entries exceed capacity %d", len(p.TopK), l.Capacity(OpReduce))
	}
	if p.Index < -1 || p.Index > 1<<62 {
		return nil, fmt.Errorf("proto: reduce index %d out of range", p.Index)
	}
	if p.Count < 0 || p.Count > 1<<62 {
		return nil, fmt.Errorf("proto: reduce count %d out of range", p.Count)
	}
	for i := 1; i < len(p.TopK); i++ {
		if topKOrder(p.TopK[i-1], p.TopK[i]) >= 0 {
			return nil, fmt.Errorf("proto: top-k entry %d %+v does not follow %+v", i, p.TopK[i], p.TopK[i-1])
		}
	}
	n := int64(len(p.TopK))
	out := make([]byte, l.ResultSize(OpReduce, n))
	binary.LittleEndian.PutUint64(out, p.Value)
	idx := ScanCursorNone
	if p.Index >= 0 {
		idx = uint64(p.Index)
	}
	binary.LittleEndian.PutUint64(out[8:], idx)
	binary.LittleEndian.PutUint64(out[16:], uint64(p.Count))
	binary.LittleEndian.PutUint32(out[24:], uint32(n))
	out[28], out[29] = byte(lowBits(l.Elems, n)), byte(l.Value)
	byIndex := slices.Clone(p.TopK)
	slices.SortFunc(byIndex, func(a, b ScanMatch) int { return cmp.Compare(a.Index, b.Index) })
	if err := l.putMatches(out[reduceHeaderLen:], byIndex, "top-k entry"); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalReduceResultPayload decodes the result of req, the
// pushdown_reduce request it answers: the request names the partition and
// k, so bounds the top-k count and the indexes, and its value range gives
// the values' base.
func UnmarshalReduceResultPayload(page []byte, req ReducePayload) (ReduceResultPayload, error) {
	lo, hi := req.ValueRange()
	if lo > hi {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce range [%d,%d] inverted", lo, hi)
	}
	if len(page) < reduceHeaderLen {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page[24:]))
	if count > int(req.K) {
		return ReduceResultPayload{}, fmt.Errorf("proto: %d top-k entries answer a request for %d", count, req.K)
	}
	l, err := resultLayout(page, OpReduce, 28, count, requestLayout(req.Sub, lo, hi), "top-k entry")
	if err != nil {
		return ReduceResultPayload{}, err
	}
	p := ReduceResultPayload{Value: binary.LittleEndian.Uint64(page), Index: -1}
	if idx := binary.LittleEndian.Uint64(page[8:]); idx != ScanCursorNone {
		if idx > 1<<62 {
			return ReduceResultPayload{}, fmt.Errorf("proto: reduce index %d out of range", idx)
		}
		p.Index = int64(idx)
	}
	cnt := binary.LittleEndian.Uint64(page[16:])
	if cnt > 1<<62 {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce count %d out of range", cnt)
	}
	p.Count = int64(cnt)
	if p.TopK, err = l.matches(page[reduceHeaderLen:], count, hi-lo, "top-k entry"); err != nil {
		return ReduceResultPayload{}, err
	}
	slices.SortFunc(p.TopK, topKOrder)
	return p, nil
}

// topKOrder orders top-k entries as a result lists them: value descending,
// ties by ascending index.
func topKOrder(a, b ScanMatch) int {
	if c := cmp.Compare(b.Value, a.Value); c != 0 {
		return c
	}
	return cmp.Compare(a.Index, b.Index)
}
