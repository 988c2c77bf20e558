package proto

import (
	"encoding/binary"
	"fmt"
)

// Pushdown wire format (opcodes 0xCE pushdown_scan, 0xCF pushdown_reduce).
//
// Both request payloads extend the read/write coordinate page: the standard
// CoordPayload prefix (uint32 rank, rank x (uint32 coord, uint32 sub))
// followed by operator parameters at offset 4+8*rank. Both result payloads
// are bounded to one 4 KB page, truncating to fit like get_tenant_stats: the
// true totals travel in the page header and the completion's result words
// (Result0 = true total / primary scalar), and a truncated scan is resumable
// by passing the returned cursor as the next request's Cursor.

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
	// Max bounds the reported matches; 0 fills the result page
	// (MaxScanMatches). Values above MaxScanMatches are clamped by the
	// device — the page cannot carry more.
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

// scanHeaderLen is the result page header: uint32 count, uint32 reserved,
// uint64 total, uint64 next-cursor.
const scanHeaderLen = 4 + 4 + 8 + 8

// MaxScanMatches is how many matches fit in one 4 KB result page after the
// header. A scan with more matches truncates here and reports the rest via
// NextCursor.
const MaxScanMatches = (PageSize - scanHeaderLen) / 16

// ScanResultPayload is the page a pushdown_scan command returns. Total is
// the true match count over the whole partition regardless of truncation
// (also in Completion.Result0); NextCursor is the element index resuming a
// truncated scan, or -1 when Matches covers everything at or past the
// request cursor (Completion.Result1 carries it as ScanCursorNone).
type ScanResultPayload struct {
	Total      int64
	NextCursor int64
	Matches    []ScanMatch
}

// Marshal encodes the result into a 4 KB page: uint32 count, uint32
// reserved, uint64 total, uint64 next-cursor, then 16 bytes per match.
func (p ScanResultPayload) Marshal() ([]byte, error) {
	if len(p.Matches) > MaxScanMatches {
		return nil, fmt.Errorf("proto: %d scan matches exceed page capacity %d", len(p.Matches), MaxScanMatches)
	}
	if p.Total < int64(len(p.Matches)) {
		return nil, fmt.Errorf("proto: scan total %d below match count %d", p.Total, len(p.Matches))
	}
	if p.NextCursor < -1 || p.NextCursor > 1<<62 {
		return nil, fmt.Errorf("proto: scan next-cursor %d out of range", p.NextCursor)
	}
	out := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(out, uint32(len(p.Matches)))
	binary.LittleEndian.PutUint64(out[8:], uint64(p.Total))
	next := ScanCursorNone
	if p.NextCursor >= 0 {
		next = uint64(p.NextCursor)
	}
	binary.LittleEndian.PutUint64(out[16:], next)
	for i, m := range p.Matches {
		if m.Index < 0 || m.Index > 1<<62 {
			return nil, fmt.Errorf("proto: scan match %d index %d out of range", i, m.Index)
		}
		binary.LittleEndian.PutUint64(out[scanHeaderLen+16*i:], uint64(m.Index))
		binary.LittleEndian.PutUint64(out[scanHeaderLen+16*i+8:], m.Value)
	}
	return out, nil
}

// UnmarshalScanResultPayload decodes a pushdown_scan result page.
func UnmarshalScanResultPayload(page []byte) (ScanResultPayload, error) {
	if len(page) < scanHeaderLen {
		return ScanResultPayload{}, fmt.Errorf("proto: scan result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page))
	if count > MaxScanMatches {
		return ScanResultPayload{}, fmt.Errorf("proto: scan match count %d exceeds page capacity %d", count, MaxScanMatches)
	}
	if len(page) < scanHeaderLen+16*count {
		return ScanResultPayload{}, fmt.Errorf("proto: scan result page truncated (%d matches, %d bytes)", count, len(page))
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
	for i := 0; i < count; i++ {
		idx := binary.LittleEndian.Uint64(page[scanHeaderLen+16*i:])
		if idx > 1<<62 {
			return ScanResultPayload{}, fmt.Errorf("proto: scan match %d index %d out of range", i, idx)
		}
		p.Matches = append(p.Matches, ScanMatch{
			Index: int64(idx),
			Value: binary.LittleEndian.Uint64(page[scanHeaderLen+16*i+8:]),
		})
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

// reduceHeaderLen is the result page header: uint64 value, uint64 index,
// uint64 count, uint32 top-k count, uint32 reserved.
const reduceHeaderLen = 8 + 8 + 8 + 4 + 4

// MaxReduceTopK is the largest top-k result that fits one 4 KB page.
const MaxReduceTopK = (PageSize - reduceHeaderLen) / 16

// ReduceResultPayload is the page a pushdown_reduce command returns. Value
// carries the scalar result (sum, count, min, max, or the top value; also in
// Completion.Result0), Index the first element attaining a min/max (-1
// elsewhere), Count the contributing-element count (Completion.Result1).
type ReduceResultPayload struct {
	Value uint64
	Index int64
	Count int64
	TopK  []ScanMatch
}

// Marshal encodes the result into a 4 KB page.
func (p ReduceResultPayload) Marshal() ([]byte, error) {
	if len(p.TopK) > MaxReduceTopK {
		return nil, fmt.Errorf("proto: %d top-k entries exceed page capacity %d", len(p.TopK), MaxReduceTopK)
	}
	if p.Index < -1 || p.Index > 1<<62 {
		return nil, fmt.Errorf("proto: reduce index %d out of range", p.Index)
	}
	if p.Count < 0 || p.Count > 1<<62 {
		return nil, fmt.Errorf("proto: reduce count %d out of range", p.Count)
	}
	out := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(out, p.Value)
	idx := ScanCursorNone
	if p.Index >= 0 {
		idx = uint64(p.Index)
	}
	binary.LittleEndian.PutUint64(out[8:], idx)
	binary.LittleEndian.PutUint64(out[16:], uint64(p.Count))
	binary.LittleEndian.PutUint32(out[24:], uint32(len(p.TopK)))
	for i, m := range p.TopK {
		if m.Index < 0 || m.Index > 1<<62 {
			return nil, fmt.Errorf("proto: top-k entry %d index %d out of range", i, m.Index)
		}
		binary.LittleEndian.PutUint64(out[reduceHeaderLen+16*i:], uint64(m.Index))
		binary.LittleEndian.PutUint64(out[reduceHeaderLen+16*i+8:], m.Value)
	}
	return out, nil
}

// UnmarshalReduceResultPayload decodes a pushdown_reduce result page.
func UnmarshalReduceResultPayload(page []byte) (ReduceResultPayload, error) {
	if len(page) < reduceHeaderLen {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce result page too short")
	}
	count := int(binary.LittleEndian.Uint32(page[24:]))
	if count > MaxReduceTopK {
		return ReduceResultPayload{}, fmt.Errorf("proto: top-k count %d exceeds page capacity %d", count, MaxReduceTopK)
	}
	if len(page) < reduceHeaderLen+16*count {
		return ReduceResultPayload{}, fmt.Errorf("proto: reduce result page truncated (%d entries, %d bytes)", count, len(page))
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
	for i := 0; i < count; i++ {
		idx := binary.LittleEndian.Uint64(page[reduceHeaderLen+16*i:])
		if idx > 1<<62 {
			return ReduceResultPayload{}, fmt.Errorf("proto: top-k entry %d index %d out of range", i, idx)
		}
		p.TopK = append(p.TopK, ScanMatch{
			Index: int64(idx),
			Value: binary.LittleEndian.Uint64(page[reduceHeaderLen+16*i+8:]),
		})
	}
	return p, nil
}
