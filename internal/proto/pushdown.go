package proto

import (
	"encoding/binary"
	"fmt"
)

// Pushdown wire format (opcodes 0xCE pushdown_scan, 0xCF pushdown_reduce).
//
// Both request payloads extend the read/write coordinate page: the standard
// CoordPayload prefix (uint32 rank, rank x (uint32 coord, uint32 sub))
// followed by operator parameters at offset 4+8*rank. Both results are a
// header plus one record per match or top-k entry, bounded to one 4 KB page
// and exactly as long as what they hold (see Layout). A scan truncates to fit
// like get_tenant_stats: the true totals travel in the header and the
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

// Layout is the record layout of a pushdown result: the byte widths of a
// record's element index and value. A record is the index (4 bytes, or 8 for
// a partition of more than 2^32 elements) followed by the value in the
// element's own width (1, 2, 4 or 8 bytes), both little-endian. The two
// widths travel in the result header, so a host decodes a result without
// knowing the space's element size.
type Layout struct {
	Index, Value int
}

// LayoutFor is the layout of results over a partition of sub's shape holding
// elemSize-byte elements. The shape is the requested one, before an edge of
// the space clamps it, so the host and the device know the layout from the
// request alone, before the scan runs.
func LayoutFor(elemSize int, sub []int64) Layout {
	l := Layout{Index: 4, Value: elemSize}
	n := int64(1)
	for _, d := range sub {
		if d <= 0 {
			return l // no elements: the request fails its bounds check
		}
		if n > (1<<32)/d {
			l.Index = 8
			return l
		}
		n *= d
	}
	return l
}

// ResultSize is the wire length of op's result (OpScan or OpReduce) holding
// records matches or top-k entries: the header plus one record each. It is
// the one statement of a result's size: the encoders, the device's clamp on
// a scan's matches and the simulator's link charge all use it.
func (l Layout) ResultSize(op Opcode, records int64) int64 {
	var hdr int64
	switch op {
	case OpScan:
		hdr = scanHeaderLen
	case OpReduce:
		hdr = reduceHeaderLen
	default:
		panic(fmt.Sprintf("proto: %v returns no pushdown result", op))
	}
	return hdr + records*int64(l.Index+l.Value)
}

// Capacity is how many records one page of op's result holds.
func (l Layout) Capacity(op Opcode) int {
	return int((PageSize - l.ResultSize(op, 0)) / int64(l.Index+l.Value))
}

func (l Layout) valid() bool {
	return (l.Index == 4 || l.Index == 8) && (l.Value == 1 || l.Value == 2 || l.Value == 4 || l.Value == 8)
}

// putRecords encodes ms as consecutive records from out[0], refusing an
// entry whose index or value does not fit the layout.
func (l Layout) putRecords(out []byte, ms []ScanMatch, what string) error {
	maxIdx := int64(1) << 62
	if l.Index == 4 {
		maxIdx = 1<<32 - 1
	}
	maxVal := ^uint64(0) >> (64 - 8*l.Value)
	rec := l.Index + l.Value
	for i, m := range ms {
		if m.Index < 0 || m.Index > maxIdx {
			return fmt.Errorf("proto: %s %d index %d out of range", what, i, m.Index)
		}
		if m.Value > maxVal {
			return fmt.Errorf("proto: %s %d value %#x wider than %d bytes", what, i, m.Value, l.Value)
		}
		putUint(out[rec*i:], uint64(m.Index), l.Index)
		putUint(out[rec*i+l.Index:], m.Value, l.Value)
	}
	return nil
}

// records decodes n consecutive records from page[0].
func (l Layout) records(page []byte, n int, what string) ([]ScanMatch, error) {
	if n == 0 {
		return nil, nil
	}
	out := make([]ScanMatch, n)
	rec := l.Index + l.Value
	for i := range out {
		idx := getUint(page[rec*i:], l.Index)
		if idx > 1<<62 {
			return nil, fmt.Errorf("proto: %s %d index %d out of range", what, i, idx)
		}
		out[i] = ScanMatch{Index: int64(idx), Value: getUint(page[rec*i+l.Index:], l.Value)}
	}
	return out, nil
}

// resultLayout reads the layout from a result header's two width bytes at
// page[off:] and checks that page is exactly op's result of count records.
func resultLayout(page []byte, op Opcode, off, count int, what string) (Layout, error) {
	l := Layout{Index: int(page[off]), Value: int(page[off+1])}
	if !l.valid() {
		return l, fmt.Errorf("proto: %s result layout (%d-byte index, %d-byte value) invalid", what, l.Index, l.Value)
	}
	if count > l.Capacity(op) {
		return l, fmt.Errorf("proto: %s count %d exceeds page capacity %d", what, count, l.Capacity(op))
	}
	if size := l.ResultSize(op, int64(count)); int64(len(page)) != size {
		return l, fmt.Errorf("proto: %s result of %d records is %d bytes, not %d", what, count, len(page), size)
	}
	return l, nil
}

func putUint(b []byte, v uint64, width int) {
	switch width {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

func getUint(b []byte, width int) uint64 {
	switch width {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// scanHeaderLen is the scan result header: uint32 count, the index and
// value widths (one byte each), two reserved bytes, uint64 total, uint64
// next-cursor.
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

// Marshal encodes the result in layout l: the header, then one record per
// match, l.ResultSize(OpScan, len(p.Matches)) bytes in all.
func (p ScanResultPayload) Marshal(l Layout) ([]byte, error) {
	if !l.valid() {
		return nil, fmt.Errorf("proto: scan result layout %+v invalid", l)
	}
	if len(p.Matches) > l.Capacity(OpScan) {
		return nil, fmt.Errorf("proto: %d scan matches exceed page capacity %d", len(p.Matches), l.Capacity(OpScan))
	}
	if p.Total < int64(len(p.Matches)) {
		return nil, fmt.Errorf("proto: scan total %d below match count %d", p.Total, len(p.Matches))
	}
	if p.NextCursor < -1 || p.NextCursor > 1<<62 {
		return nil, fmt.Errorf("proto: scan next-cursor %d out of range", p.NextCursor)
	}
	out := make([]byte, l.ResultSize(OpScan, int64(len(p.Matches))))
	binary.LittleEndian.PutUint32(out, uint32(len(p.Matches)))
	out[4], out[5] = byte(l.Index), byte(l.Value)
	binary.LittleEndian.PutUint64(out[8:], uint64(p.Total))
	next := ScanCursorNone
	if p.NextCursor >= 0 {
		next = uint64(p.NextCursor)
	}
	binary.LittleEndian.PutUint64(out[16:], next)
	if err := l.putRecords(out[scanHeaderLen:], p.Matches, "scan match"); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalScanResultPayload decodes a pushdown_scan result.
func UnmarshalScanResultPayload(page []byte) (ScanResultPayload, error) {
	if len(page) < scanHeaderLen {
		return ScanResultPayload{}, fmt.Errorf("proto: scan result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page))
	l, err := resultLayout(page, OpScan, 4, count, "scan match")
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
	if p.Matches, err = l.records(page[scanHeaderLen:], count, "scan match"); err != nil {
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

// reduceHeaderLen is the reduce result header: uint64 value, uint64 index,
// uint64 count, uint32 top-k count, the index and value widths (one byte
// each), two reserved bytes.
const reduceHeaderLen = 8 + 8 + 8 + 4 + 4

// MaxReduceTopK is the largest top-k a request may ask for: what one page
// holds in the widest layout (8-byte index, 8-byte value), so every layout's
// result fits.
const MaxReduceTopK = (PageSize - reduceHeaderLen) / 16

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

// Marshal encodes the result in layout l: the header, then one record per
// top-k entry, l.ResultSize(OpReduce, len(p.TopK)) bytes in all.
func (p ReduceResultPayload) Marshal(l Layout) ([]byte, error) {
	if !l.valid() {
		return nil, fmt.Errorf("proto: reduce result layout %+v invalid", l)
	}
	if len(p.TopK) > l.Capacity(OpReduce) {
		return nil, fmt.Errorf("proto: %d top-k entries exceed page capacity %d", len(p.TopK), l.Capacity(OpReduce))
	}
	if p.Index < -1 || p.Index > 1<<62 {
		return nil, fmt.Errorf("proto: reduce index %d out of range", p.Index)
	}
	if p.Count < 0 || p.Count > 1<<62 {
		return nil, fmt.Errorf("proto: reduce count %d out of range", p.Count)
	}
	out := make([]byte, l.ResultSize(OpReduce, int64(len(p.TopK))))
	binary.LittleEndian.PutUint64(out, p.Value)
	idx := ScanCursorNone
	if p.Index >= 0 {
		idx = uint64(p.Index)
	}
	binary.LittleEndian.PutUint64(out[8:], idx)
	binary.LittleEndian.PutUint64(out[16:], uint64(p.Count))
	binary.LittleEndian.PutUint32(out[24:], uint32(len(p.TopK)))
	out[28], out[29] = byte(l.Index), byte(l.Value)
	if err := l.putRecords(out[reduceHeaderLen:], p.TopK, "top-k entry"); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalReduceResultPayload decodes a pushdown_reduce result.
func UnmarshalReduceResultPayload(page []byte) (ReduceResultPayload, error) {
	if len(page) < reduceHeaderLen {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page[24:]))
	l, err := resultLayout(page, OpReduce, 28, count, "top-k entry")
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
	if p.TopK, err = l.records(page[reduceHeaderLen:], count, "top-k entry"); err != nil {
		return ReduceResultPayload{}, err
	}
	return p, nil
}
