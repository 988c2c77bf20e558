package proto

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

func TestPushdownCommandRoundTrip(t *testing.T) {
	cases := []struct {
		cmd  Command
		op   Opcode
		name string
	}{
		{NewScan(7, 0x9000), OpScan, "pushdown_scan"},
		{NewReduce(9, 0xA000), OpReduce, "pushdown_reduce"},
	}
	for _, tc := range cases {
		got, err := Unmarshal(tc.cmd.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.cmd {
			t.Fatalf("%s round-trip mismatch", tc.name)
		}
		if got.Opcode() != tc.op {
			t.Fatalf("opcode = %v", got.Opcode())
		}
		if got.Opcode().String() != tc.name {
			t.Fatalf("opcode string = %q", got.Opcode().String())
		}
	}
}

func TestScanPayloadRoundTrip(t *testing.T) {
	p := ScanPayload{
		Coord:  []int64{1, 2, 3},
		Sub:    []int64{4, 5, 6},
		Lo:     100,
		Hi:     ^uint64(0),
		Cursor: 4096,
		Max:    17,
	}
	page, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != PageSize {
		t.Fatalf("page is %d bytes", len(page))
	}
	got, err := UnmarshalScanPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
}

func TestScanPayloadValidation(t *testing.T) {
	base := ScanPayload{Coord: []int64{0}, Sub: []int64{1}, Lo: 5, Hi: 1}
	if _, err := base.Marshal(); err == nil {
		t.Fatal("inverted range marshalled")
	}
	neg := ScanPayload{Coord: []int64{0}, Sub: []int64{1}, Cursor: -1}
	if _, err := neg.Marshal(); err == nil {
		t.Fatal("negative cursor marshalled")
	}
	// An on-the-wire cursor past 2^62 must be rejected.
	good, err := ScanPayload{Coord: []int64{0}, Sub: []int64{1}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(good[4+8+16:], 1<<63) // cursor word for rank 1
	if _, err := UnmarshalScanPayload(good); err == nil {
		t.Fatal("overflowing cursor unmarshalled")
	}
	if _, err := UnmarshalScanPayload(make([]byte, 8)); err == nil {
		t.Fatal("short page unmarshalled")
	}
}

// request is a pushdown request's partition shape and value range, with the
// element width of the device that answers it.
type request struct {
	es     int
	sub    []int64
	lo, hi uint64
}

const all = ^uint64(0)

func (r request) layout() Layout { return LayoutFor(r.es, r.sub, r.lo, r.hi) }

func (r request) scan() ScanPayload { return ScanPayload{Sub: r.sub, Lo: r.lo, Hi: r.hi} }

// reduce is a top-k request of depth k over r; a range of every value is
// no predicate.
func (r request) reduce(k uint32) ReducePayload {
	p := ReducePayload{Sub: r.sub, Op: ReduceOpTopK, K: k}
	if r.lo != 0 || r.hi != all {
		p.HasPred, p.Lo, p.Hi = true, r.lo, r.hi
	}
	return p
}

// top is the largest value a match of r holds; below r.lo when none can.
func (r request) top() uint64 { return min(r.hi, elemMax(r.es)) }

// matchesFor is n matches of r spread over its partition and value range:
// the last element and the range's ends among them.
func matchesFor(r request, n int) []ScanMatch {
	if n == 0 || r.top() < r.lo {
		return nil
	}
	l, top := r.layout(), r.top()
	vals := []uint64{top, r.lo, r.lo + (top-r.lo)/2}
	ms := make([]ScanMatch, n)
	for i := range ms {
		ms[i] = ScanMatch{Index: (int64(i)*7919 + l.Elems - 1) % l.Elems, Value: vals[i%3]}
	}
	return ms
}

// requests spans the record widths a result can take.
var requests = []request{
	{4, []int64{512, 512}, 0, all},         // an 18-bit index, the element's 32-bit value
	{4, []int64{512, 512}, 0, 0},           // a value the predicate names: 0 bits
	{4, []int64{512, 512}, 1000, 1099},     // 7-bit values: records that are not whole bytes
	{1, []int64{1}, 7, 7},                  // a record of no bits
	{1, []int64{2}, 0, 1},                  // 1-bit widths
	{2, []int64{3, 5, 7}, 0, all},          // 7 + 16 bits
	{8, []int64{1 << 31, 1 << 31}, 0, all}, // 62 + 64 bits, the widest record
	{1, []int64{64}, 300, 400},             // lo above the width's max: nothing can match
}

func TestLayoutFor(t *testing.T) {
	cases := []struct {
		r    request
		want Layout
	}{
		{request{4, []int64{512, 512}, 0, all}, Layout{18, 32, 0, 1 << 18}},
		{request{4, []int64{512, 512}, 5, 5}, Layout{18, 0, 5, 1 << 18}},
		{request{4, []int64{512, 512}, 100, 100 + 1<<32/100}, Layout{18, 26, 100, 1 << 18}},  // 1 % of the values
		{request{1, []int64{1 << 16, 1 << 16}, 0, all}, Layout{32, 8, 0, 1 << 32}},           // exactly 2^32 elements
		{request{2, []int64{1 << 16, 1<<16 + 1}, 0, all}, Layout{33, 16, 0, 1<<32 + 1<<16}},  // one row past 2^32
		{request{8, []int64{1 << 20, 1 << 20, 1 << 20}, 0, all}, Layout{60, 64, 0, 1 << 60}}, // 2^60: no overflow
		{request{8, []int64{1 << 31, 1 << 31, 4}, 0, all}, Layout{62, 64, 0, 1 << 62}},       // 2^64 saturates at 2^62
		{request{1, []int64{1}, 9, 9}, Layout{0, 0, 9, 1}},                                   // a record of no bits
		{request{2, []int64{4}, 0, 1 << 20}, Layout{2, 16, 0, 4}},                            // hi above the width's max
		{request{1, []int64{4}, 300, 400}, Layout{2, 0, 300, 4}},                             // lo above it: no value matches
		{request{4, []int64{0, 1 << 40}, 0, all}, Layout{0, 32, 0, 0}},                       // empty: fails its bounds check
	}
	for _, c := range cases {
		if got := c.r.layout(); got != c.want {
			t.Errorf("LayoutFor(%d, %v, %d, %d) = %+v, want %+v", c.r.es, c.r.sub, c.r.lo, c.r.hi, got, c.want)
		}
	}
}

// TestResultCapacities pins how many records one page holds per layout:
// DESIGN.md's capacity table. Every layout holds a top-MaxReduceTopK result,
// or the whole partition when that is smaller.
func TestResultCapacities(t *testing.T) {
	want := [][2]int{ // {scan, reduce}, one per request
		{651, 650}, {1809, 1806}, {1303, 1300}, {1, 1}, {2, 2}, {105, 105}, {258, 258}, {64, 64},
	}
	for i, r := range requests {
		l := r.layout()
		got := [2]int{l.Capacity(OpScan), l.Capacity(OpReduce)}
		if got != want[i] {
			t.Errorf("%+v: capacity %v, want %v", l, got, want[i])
		}
		if int64(got[1]) < min(MaxReduceTopK, l.Elems) {
			t.Errorf("%+v: a top-%d request does not fit (%d)", l, MaxReduceTopK, got[1])
		}
	}
	if MaxReduceTopK != 258 {
		t.Errorf("MaxReduceTopK = %d, want 258", MaxReduceTopK)
	}
	// A hostile count cannot make a 0-bit record's result hold more than its
	// one element, though any count of them fits the header alone.
	if l := (request{1, []int64{1}, 7, 7}).layout(); l.ResultSize(OpScan, 1<<32-1) != scanHeaderLen || l.Capacity(OpScan) != 1 {
		t.Errorf("0-bit records: %d bytes for 2^32-1, capacity %d", l.ResultSize(OpScan, 1<<32-1), l.Capacity(OpScan))
	}
}

func TestScanResultPayloadRoundTrip(t *testing.T) {
	for _, r := range requests {
		l := r.layout()
		p := ScanResultPayload{Total: 1000, NextCursor: 555, Matches: matchesFor(r, min(3, l.Capacity(OpScan)))}
		n := len(p.Matches)
		page, err := p.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpScan, int64(n)) || len(page) != 24+(n*(l.Index+l.Value)+7)/8 {
			t.Fatalf("%+v: result is %d bytes, want %d", l, len(page), l.ResultSize(OpScan, int64(n)))
		}
		got, err := UnmarshalScanResultPayload(page, r.scan())
		if err != nil {
			t.Fatalf("%+v: %v", l, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%+v round trip: %+v != %+v", l, got, p)
		}
	}

	// A complete scan encodes NextCursor -1 as all-ones on the wire.
	r := requests[0]
	done := ScanResultPayload{Total: 3, NextCursor: -1, Matches: []ScanMatch{{Index: 1, Value: 2}}}
	page, err := done.Marshal(r.layout())
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(page[16:]) != ScanCursorNone {
		t.Fatal("complete scan did not encode cursor-none")
	}
	got, err := UnmarshalScanResultPayload(page, r.scan())
	if err != nil {
		t.Fatal(err)
	}
	if got.NextCursor != -1 {
		t.Fatalf("next cursor = %d", got.NextCursor)
	}
}

func TestScanResultPayloadFullPage(t *testing.T) {
	// Exactly Capacity entries fit; one more must fail.
	for _, r := range requests {
		l := r.layout()
		n := l.Capacity(OpScan)
		if r.top() < r.lo {
			continue // no match can be encoded
		}
		full := ScanResultPayload{Total: int64(n) + 50, NextCursor: 7, Matches: matchesFor(r, n)}
		page, err := full.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > PageSize || (int64(n) < l.Elems && l.ResultSize(OpScan, int64(n)+1) <= PageSize) {
			t.Fatalf("%+v: a full result is %d bytes", l, len(page))
		}
		got, err := UnmarshalScanResultPayload(page, r.scan())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("%+v: full page round trip mismatch", l)
		}
		over := full
		over.Matches = append(over.Matches, ScanMatch{Index: 0, Value: r.lo})
		over.Total++
		if _, err := over.Marshal(l); err == nil {
			t.Fatalf("%+v: oversized match list marshalled", l)
		}
	}
}

func TestScanResultPayloadValidation(t *testing.T) {
	r := request{4, []int64{512, 512}, 1000, 1099} // 18-bit indexes, 7-bit values
	l := r.layout()
	bad := ScanResultPayload{Total: 0, Matches: []ScanMatch{{Index: 1, Value: 1000}}}
	if _, err := bad.Marshal(l); err == nil {
		t.Fatal("total below match count marshalled")
	}
	// An entry the layout cannot hold is refused, not truncated.
	for _, m := range []ScanMatch{{Index: 1, Value: 999}, {Index: 1, Value: 1000 + 128}, {Index: 1 << 18, Value: 1000}, {Index: -1, Value: 1000}} {
		if _, err := (ScanResultPayload{Total: 1, Matches: []ScanMatch{m}}).Marshal(l); err == nil {
			t.Fatalf("%+v marshalled in %+v", m, l)
		}
	}
	for _, inv := range []Layout{{Index: 32, Value: 32, Elems: 1 << 18}, {Index: 18, Value: 65, Elems: 1 << 18}, {Index: 63, Value: 8, Elems: 1<<63 - 1}} {
		if _, err := (ScanResultPayload{}).Marshal(inv); err == nil {
			t.Fatalf("invalid layout %+v marshalled", inv)
		}
	}

	one, err := ScanResultPayload{Total: 1, NextCursor: -1, Matches: []ScanMatch{{Index: 1, Value: 1000}}}.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, page []byte, req ScanPayload) {
		t.Helper()
		if _, err := UnmarshalScanResultPayload(page, req); err == nil {
			t.Fatalf("%s unmarshalled", what)
		}
	}
	refused("a result missing its record", one[:scanHeaderLen], r.scan())
	refused("a result padded past what it holds", append(bytes.Clone(one), 0), r.scan())
	refused("an inverted request", one, ScanPayload{Sub: r.sub, Lo: 2, Hi: 1})
	wrongIndex := bytes.Clone(one)
	wrongIndex[4] = 19
	refused("an index width the request does not imply", wrongIndex, r.scan())
	wideValue := bytes.Clone(one)
	wideValue[5] = 8
	refused("a value wider than the request's range", wideValue, r.scan())
	padded := bytes.Clone(one) // 25 bits: the last byte has 7 padding bits
	padded[len(padded)-1] |= 0x80
	refused("a set padding bit", padded, r.scan())
	outside := bytes.Clone(one)
	putBits(outside[scanHeaderLen:], 18, 127, 7) // value 1000+127, past hi
	refused("a value outside the request's range", outside, r.scan())
	small := request{1, []int64{5}, 0, all} // 3-bit indexes
	far, err := ScanResultPayload{Total: 1, Matches: []ScanMatch{{Index: 0, Value: 9}}}.Marshal(small.layout())
	if err != nil {
		t.Fatal(err)
	}
	putBits(far[scanHeaderLen:], 0, 5, 3)
	refused("an index outside the partition", far, small.scan())

	// A count the partition cannot hold is refused before anything is
	// allocated, even where the page is long enough: 0-bit records fit any
	// count into the header alone, 2-bit ones eight into two bytes.
	hostile := make([]byte, scanHeaderLen)
	binary.LittleEndian.PutUint32(hostile, 1<<32-1)
	binary.LittleEndian.PutUint64(hostile[8:], 1<<32-1)
	refused("2^32-1 records of no bits", hostile, request{8, []int64{1}, 7, 7}.scan())
	eight := make([]byte, scanHeaderLen+2)
	binary.LittleEndian.PutUint32(eight, 8)
	eight[4] = 2
	binary.LittleEndian.PutUint64(eight[8:], 8)
	refused("8 records of a 4-element partition", eight, request{8, []int64{4}, 7, 7}.scan())
}

func TestReducePayloadRoundTrip(t *testing.T) {
	cases := []ReducePayload{
		{Coord: []int64{0, 1}, Sub: []int64{2, 3}, Op: ReduceOpSum},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpCount, HasPred: true, Lo: 10, Hi: 20},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpMin},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpMax, HasPred: true, Lo: 0, Hi: 0},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpTopK, K: 10},
	}
	for i, p := range cases {
		page, err := p.Marshal()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := UnmarshalReducePayload(page)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("case %d round trip: %+v != %+v", i, got, p)
		}
	}
}

func TestReducePayloadValidation(t *testing.T) {
	bad := []ReducePayload{
		{Coord: []int64{0}, Sub: []int64{1}, Op: 0},
		{Coord: []int64{0}, Sub: []int64{1}, Op: 99},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpTopK, K: 0},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpTopK, K: uint32(MaxReduceTopK) + 1},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpSum, K: 5},
		{Coord: []int64{0}, Sub: []int64{1}, Op: ReduceOpMin, HasPred: true, Lo: 9, Hi: 1},
	}
	for i, p := range bad {
		if _, err := p.Marshal(); err == nil {
			t.Fatalf("case %d marshalled: %+v", i, p)
		}
	}
}

func TestReduceResultPayloadRoundTrip(t *testing.T) {
	for _, r := range requests {
		l := r.layout()
		p := ReduceResultPayload{Value: 12345, Index: 678, Count: 90, TopK: matchesFor(r, min(2, l.Capacity(OpReduce)))}
		n := len(p.TopK)
		page, err := p.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpReduce, int64(n)) || len(page) != 32+(n*(l.Index+l.Value)+7)/8 {
			t.Fatalf("%+v: result is %d bytes, want %d", l, len(page), l.ResultSize(OpReduce, int64(n)))
		}
		got, err := UnmarshalReduceResultPayload(page, r.reduce(2))
		if err != nil {
			t.Fatalf("%+v: %v", l, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%+v round trip: %+v != %+v", l, got, p)
		}
	}

	// Index -1 (no element attained the result) survives the trip, in a
	// result that is its header alone.
	sum := ReducePayload{Sub: []int64{64, 64}, Op: ReduceOpSum}
	none := ReduceResultPayload{Value: 0, Index: -1, Count: 0}
	page, err := none.Marshal(LayoutFor(4, sum.Sub, 0, all))
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != reduceHeaderLen {
		t.Fatalf("scalar result is %d bytes", len(page))
	}
	got, err := UnmarshalReduceResultPayload(page, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != -1 || got.Count != 0 || len(got.TopK) != 0 {
		t.Fatalf("empty result round trip: %+v", got)
	}
}

func TestReduceResultPayloadValidation(t *testing.T) {
	for _, r := range requests {
		l := r.layout()
		over := ReduceResultPayload{TopK: make([]ScanMatch, l.Capacity(OpReduce)+1)}
		if _, err := over.Marshal(l); err == nil {
			t.Fatalf("%+v: oversized top-k marshalled", l)
		}
	}
	r := requests[0]
	neg := ReduceResultPayload{Count: -1}
	if _, err := neg.Marshal(r.layout()); err == nil {
		t.Fatal("negative count marshalled")
	}
	two, err := ReduceResultPayload{Count: 2, TopK: matchesFor(r, 2)}.Marshal(r.layout())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalReduceResultPayload(two[:reduceHeaderLen], r.reduce(2)); err == nil {
		t.Fatal("truncated top-k list unmarshalled")
	}
	if _, err := UnmarshalReduceResultPayload(two, r.reduce(1)); err == nil {
		t.Fatal("two top-k entries unmarshalled for a top-1 request")
	}
	if _, err := UnmarshalReduceResultPayload(two, ReducePayload{Sub: r.sub, Op: ReduceOpMax}); err == nil {
		t.Fatal("top-k entries unmarshalled for a max request")
	}
	inverted := r.reduce(2)
	inverted.HasPred, inverted.Lo, inverted.Hi = true, 9, 1
	if _, err := UnmarshalReduceResultPayload(two, inverted); err == nil {
		t.Fatal("result of an inverted request unmarshalled")
	}
}

// TestResultRoundTripProperty: over random partitions, element widths and
// predicate spans, any in-range result is exactly LayoutFor's ResultSize
// long and decodes, under the request it answers, to what was encoded.
func TestResultRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func(r request) uint64 {
		top := r.top()
		if top-r.lo == all {
			return rng.Uint64()
		}
		return r.lo + rng.Uint64()%(top-r.lo+1)
	}
	matches := func(r request, capacity int) []ScanMatch {
		n := rng.Intn(min(capacity, 64) + 1)
		if n == 0 || r.top() < r.lo {
			return nil
		}
		ms := make([]ScanMatch, n)
		for i := range ms {
			ms[i] = ScanMatch{Index: rng.Int63n(r.layout().Elems), Value: value(r)}
		}
		return ms
	}
	for i := 0; i < 3000; i++ {
		r := request{es: 1 << rng.Intn(4), lo: rng.Uint64() >> rng.Intn(65)}
		for range 1 + rng.Intn(3) {
			r.sub = append(r.sub, 1+rng.Int63n(1<<rng.Intn(24)))
		}
		switch rng.Intn(3) {
		case 0:
			r.lo, r.hi = 0, all
		case 1:
			r.hi = r.lo
		default:
			r.hi = r.lo + min(rng.Uint64()>>rng.Intn(65), all-r.lo)
		}
		l := r.layout()

		sp := ScanResultPayload{NextCursor: rng.Int63n(1<<62) - 1, Matches: matches(r, l.Capacity(OpScan))}
		sp.Total = int64(len(sp.Matches)) + rng.Int63n(100)
		page, err := sp.Marshal(l)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if int64(len(page)) != l.ResultSize(OpScan, int64(len(sp.Matches))) {
			t.Fatalf("%+v: scan result is %d bytes, want %d", r, len(page), l.ResultSize(OpScan, int64(len(sp.Matches))))
		}
		if got, err := UnmarshalScanResultPayload(page, r.scan()); err != nil || !reflect.DeepEqual(got, sp) {
			t.Fatalf("%+v: scan round trip: %+v, %v; want %+v", r, got, err, sp)
		}

		rp := ReduceResultPayload{Value: rng.Uint64(), Index: rng.Int63n(1<<62) - 1, Count: rng.Int63n(1 << 62),
			TopK: matches(r, min(l.Capacity(OpReduce), MaxReduceTopK))}
		if page, err = rp.Marshal(l); err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if int64(len(page)) != l.ResultSize(OpReduce, int64(len(rp.TopK))) {
			t.Fatalf("%+v: reduce result is %d bytes, want %d", r, len(page), l.ResultSize(OpReduce, int64(len(rp.TopK))))
		}
		if got, err := UnmarshalReduceResultPayload(page, r.reduce(uint32(max(len(rp.TopK), 1)))); err != nil || !reflect.DeepEqual(got, rp) {
			t.Fatalf("%+v: reduce round trip: %+v, %v; want %+v", r, got, err, rp)
		}
	}
}

// FuzzUnmarshalScanPayload: arbitrary bytes must never panic, and any page
// that parses must survive a marshal round-trip.
func FuzzUnmarshalScanPayload(f *testing.F) {
	seed, _ := ScanPayload{Coord: []int64{1}, Sub: []int64{2}, Lo: 3, Hi: 9, Max: 4}.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, PageSize))
	f.Fuzz(func(t *testing.T, page []byte) {
		p, err := UnmarshalScanPayload(page)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalScanPayload(out)
		if err != nil {
			t.Fatalf("re-marshalled payload failed to parse: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("payload not stable under marshal round-trip")
		}
	})
}

// fuzzRequests are the result decoders' seed requests, each over a 1-D
// partition: the record shapes at the edges of the layout.
var fuzzRequests = []request{
	{8, []int64{1}, 7, 7},         // a 0-bit index and a 0-bit value
	{8, []int64{1 << 18}, 5, 5},   // a 0-bit value
	{8, []int64{1}, 0, all},       // a 0-bit index
	{8, []int64{2}, 0, 1},         // 1-bit widths
	{8, []int64{105}, 1000, 1099}, // 7-bit widths, records of 14 bits
	{1, []int64{300}, 0, all},     // a value narrower than the request allows
	{8, []int64{1 << 62}, 0, all}, // 62 + 64 bits, the widest record
}

// resultSeeds adds a result decoder's seed corpus for op's results: a valid
// result (from valid) for every fuzz request, then the malformed shapes a
// decoder must refuse — a header cut short, a count past the capacity of a
// page long enough to hold it (0-bit records), a count past a page's
// capacity, a last record missing its last byte, and a result padded to a
// whole page.
func resultSeeds(f *testing.F, op Opcode, valid func(request) []byte) {
	countAt := 0 // where the header's record count lies
	if op == OpReduce {
		countAt = 24
	}
	add := func(page []byte, r request) { f.Add(page, r.sub[0], r.lo, r.hi) }
	for _, r := range fuzzRequests {
		add(valid(r), r)
	}
	r := fuzzRequests[4]
	good := valid(r)
	add(good[:countAt+3], r)
	none := bytes.Clone(valid(fuzzRequests[0]))
	binary.LittleEndian.PutUint32(none[countAt:], 2)
	add(none, fuzzRequests[0])
	past := bytes.Clone(good)
	binary.LittleEndian.PutUint32(past[countAt:], uint32(r.layout().Capacity(op)+1))
	add(past, r)
	add(good[:len(good)-1], r)
	add(append(bytes.Clone(good), make([]byte, PageSize-len(good))...), r)
}

// headerLayout is the layout a result's header names, its width bytes at
// off, for a request over sub matching [lo, hi].
func headerLayout(page []byte, off int, sub []int64, lo, hi uint64) Layout {
	l := requestLayout(sub, lo, hi)
	l.Index, l.Value = int(page[off]), int(page[off+1])
	return l
}

// FuzzUnmarshalScanResultPayload: same contract for result pages, decoded
// under a request of the fuzzed partition size and range, each re-encoded
// in the layout its header names.
func FuzzUnmarshalScanResultPayload(f *testing.F) {
	r := request{8, []int64{16}, 0, all}
	seed, _ := ScanResultPayload{Total: 2, NextCursor: -1, Matches: []ScanMatch{{Index: 1, Value: 2}}}.Marshal(r.layout())
	f.Add(seed, r.sub[0], r.lo, r.hi)
	f.Add([]byte{}, int64(0), uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0xFF}, PageSize), int64(1<<62), uint64(0), all)
	resultSeeds(f, OpScan, func(r request) []byte {
		page, err := ScanResultPayload{Total: 9, NextCursor: 77, Matches: matchesFor(r, min(2, r.layout().Capacity(OpScan)))}.Marshal(r.layout())
		if err != nil {
			f.Fatal(err)
		}
		return page
	})
	f.Fuzz(func(t *testing.T, page []byte, elems int64, lo, hi uint64) {
		req := ScanPayload{Sub: []int64{elems}, Lo: lo, Hi: hi}
		p, err := UnmarshalScanResultPayload(page, req)
		if err != nil {
			return
		}
		out, err := p.Marshal(headerLayout(page, 4, req.Sub, lo, hi))
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalScanResultPayload(out, req)
		if err != nil {
			t.Fatalf("re-marshalled payload failed to parse: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("payload not stable under marshal round-trip")
		}
	})
}

// FuzzUnmarshalReducePayload: same contract for reduce requests.
func FuzzUnmarshalReducePayload(f *testing.F) {
	seed, _ := ReducePayload{Coord: []int64{1}, Sub: []int64{2}, Op: ReduceOpTopK, K: 3}.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x02}, PageSize))
	f.Fuzz(func(t *testing.T, page []byte) {
		p, err := UnmarshalReducePayload(page)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalReducePayload(out)
		if err != nil {
			t.Fatalf("re-marshalled payload failed to parse: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("payload not stable under marshal round-trip")
		}
	})
}

// FuzzUnmarshalReduceResultPayload: same contract for reduce results, under
// a top-MaxReduceTopK request.
func FuzzUnmarshalReduceResultPayload(f *testing.F) {
	r := request{8, []int64{16}, 0, all}
	seed, _ := ReduceResultPayload{Value: 7, Index: 1, Count: 2, TopK: []ScanMatch{{Index: 1, Value: 7}}}.Marshal(r.layout())
	f.Add(seed, r.sub[0], r.lo, r.hi)
	f.Add([]byte{}, int64(0), uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0x03}, PageSize), int64(1<<62), uint64(0), all)
	resultSeeds(f, OpReduce, func(r request) []byte {
		page, err := ReduceResultPayload{Value: 5, Index: 5, Count: 40, TopK: matchesFor(r, min(2, r.layout().Capacity(OpReduce)))}.Marshal(r.layout())
		if err != nil {
			f.Fatal(err)
		}
		return page
	})
	f.Fuzz(func(t *testing.T, page []byte, elems int64, lo, hi uint64) {
		req := request{8, []int64{elems}, lo, hi}.reduce(MaxReduceTopK)
		p, err := UnmarshalReduceResultPayload(page, req)
		if err != nil {
			return
		}
		out, err := p.Marshal(headerLayout(page, 28, req.Sub, lo, hi))
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalReduceResultPayload(out, req)
		if err != nil {
			t.Fatalf("re-marshalled payload failed to parse: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("payload not stable under marshal round-trip")
		}
	})
}
