package proto

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
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

// matchesFor is n matches of r in ascending index order, spread evenly over
// its partition (the last element among them) and its value range (both
// ends among them).
func matchesFor(r request, n int) []ScanMatch {
	if n == 0 || r.top() < r.lo {
		return nil
	}
	l, top := r.layout(), r.top()
	vals := []uint64{top, r.lo, r.lo + (top-r.lo)/2}
	ms := make([]ScanMatch, n)
	for i := range ms {
		ms[i] = ScanMatch{Index: l.Elems - 1 - int64(n-1-i)*(l.Elems/int64(n)), Value: vals[i%3]}
	}
	return ms
}

// topK is ms in the order a top-k result lists them: value descending, ties
// by ascending index.
func topK(ms []ScanMatch) []ScanMatch {
	out := slices.Clone(ms)
	slices.SortFunc(out, topKOrder)
	return out
}

// codeBits is the length of the Elias–Fano code of n indexes below elems,
// counted the long way: L is the largest shift that leaves every one of the
// n records a bucket of its own on average (n·2^L ≤ elems), each record
// takes L low bits and a 1, and the buckets 0 … (elems−1)>>L take a 0
// between each two.
func codeBits(elems, n int64) int64 {
	if n == 0 {
		return 0
	}
	low := 0
	for elems>>(low+1) >= n {
		low++
	}
	return n*int64(low+1) + (elems-1)>>low
}

// requests spans the code and value widths a result can take.
var requests = []request{
	{4, []int64{512, 512}, 0, all},         // 2^18 elements, the element's 32-bit value
	{4, []int64{512, 512}, 0, 0},           // a value the predicate names: 0 bits
	{4, []int64{512, 512}, 1000, 1099},     // 7-bit values: records that are not whole bytes
	{1, []int64{1}, 7, 7},                  // one element and no value bits: a 1-bit record
	{1, []int64{2}, 0, 1},                  // 1-bit values
	{2, []int64{3, 5, 7}, 0, all},          // 105 elements, 16-bit values
	{8, []int64{1 << 31, 1 << 31}, 0, all}, // 2^62 elements and 64-bit values, the widest
	{1, []int64{64}, 300, 400},             // lo above the width's max: nothing can match
}

func TestLayoutFor(t *testing.T) {
	cases := []struct {
		r    request
		want Layout
	}{
		{request{4, []int64{512, 512}, 0, all}, Layout{32, 0, 1 << 18}},
		{request{4, []int64{512, 512}, 5, 5}, Layout{0, 5, 1 << 18}},
		{request{4, []int64{512, 512}, 100, 100 + 1<<32/100}, Layout{26, 100, 1 << 18}},  // 1 % of the values
		{request{1, []int64{1 << 16, 1 << 16}, 0, all}, Layout{8, 0, 1 << 32}},           // exactly 2^32 elements
		{request{2, []int64{1 << 16, 1<<16 + 1}, 0, all}, Layout{16, 0, 1<<32 + 1<<16}},  // one row past 2^32
		{request{8, []int64{1 << 20, 1 << 20, 1 << 20}, 0, all}, Layout{64, 0, 1 << 60}}, // 2^60: no overflow
		{request{8, []int64{1 << 31, 1 << 31, 4}, 0, all}, Layout{64, 0, 1 << 62}},       // 2^64 saturates at 2^62
		{request{1, []int64{1}, 9, 9}, Layout{0, 9, 1}},                                  // one element, one value
		{request{2, []int64{4}, 0, 1 << 20}, Layout{16, 0, 4}},                           // hi above the width's max
		{request{1, []int64{4}, 300, 400}, Layout{0, 300, 4}},                            // lo above it: no value matches
		{request{4, []int64{0, 1 << 40}, 0, all}, Layout{32, 0, 0}},                      // empty: fails its bounds check
	}
	for _, c := range cases {
		if got := c.r.layout(); got != c.want {
			t.Errorf("LayoutFor(%d, %v, %d, %d) = %+v, want %+v", c.r.es, c.r.sub, c.r.lo, c.r.hi, got, c.want)
		}
	}
}

// TestResultCapacities pins how many records one page holds per layout
// (DESIGN.md's capacity table is ExampleLayout_Capacity's output). Every
// layout holds a top-MaxReduceTopK result, or the whole partition when that
// is smaller, and MaxReduceTopK is what the widest layout holds.
func TestResultCapacities(t *testing.T) {
	want := [][2]int{ // {scan, reduce}, one per request
		{769, 768}, {4068, 4059}, {2035, 2031}, {1, 1}, {2, 2}, {105, 105}, {271, 271}, {64, 64},
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
	if widest := (Layout{Value: 64, Elems: maxElems}).Capacity(OpReduce); MaxReduceTopK != widest || MaxReduceTopK != 271 {
		t.Errorf("MaxReduceTopK = %d, the widest layout holds %d, want 271", MaxReduceTopK, widest)
	}
	// Every record takes at least its high part's 1, so a one-element
	// partition's result of its one record is a byte past the header.
	if l := (request{1, []int64{1}, 7, 7}).layout(); l.ResultSize(OpScan, 1) != scanHeaderLen+1 || l.Capacity(OpScan) != 1 {
		t.Errorf("one element: %d bytes for its record, capacity %d", l.ResultSize(OpScan, 1), l.Capacity(OpScan))
	}
}

// TestCapacityIsLargestFit: Capacity is the largest record count whose
// ResultSize, counted the long way (codeBits), fits a page, and every
// smaller count fits too — exhaustively for partitions of up to 300
// elements, and by walking every count for partitions from 301 elements to
// 2^62.
func TestCapacityIsLargestFit(t *testing.T) {
	size := func(op Opcode, l Layout, n int64) int64 {
		return headerLen(op) + (codeBits(l.Elems, n)+n*int64(l.Value)+7)/8
	}
	check := func(l Layout) {
		t.Helper()
		for _, op := range []Opcode{OpScan, OpReduce} {
			c := int64(l.Capacity(op))
			for n := int64(0); n <= c; n++ {
				if got := l.ResultSize(op, n); got != size(op, l, n) || got > PageSize {
					t.Fatalf("%+v %v: %d records take %d bytes (%d the long way), capacity %d", l, op, n, got, size(op, l, n), c)
				}
			}
			if c < l.Elems && size(op, l, c+1) <= PageSize {
				t.Fatalf("%+v %v: capacity %d, but %d records fit", l, op, c, c+1)
			}
		}
	}
	for elems := int64(0); elems <= 300; elems++ {
		for _, v := range []int{0, 1, 7, 64} {
			check(Layout{Value: v, Elems: elems})
		}
	}
	rng := rand.New(rand.NewSource(3))
	for range 300 {
		check(Layout{Value: rng.Intn(65), Elems: 301 + rng.Int63n(maxElems>>rng.Intn(62))})
	}
}

// TestIndexCodeBound: over random partitions, record counts and value
// widths, a result's index code is within 2 bits a record of the
// information in its index set, ⌈log2 C(Elems, n)⌉, and at most 2 bits
// longer than n indexes of the fixed width bits.Len64(Elems−1) that it
// replaced — the small counts, where the high parts' zeros are not yet
// amortised, among them.
func TestIndexCodeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := range 20000 {
		l := Layout{Value: rng.Intn(65), Elems: 1 + rng.Int63n(maxElems>>rng.Intn(63))}
		n := 1 + rng.Int63n(min(l.Elems, 8)) // the counts where the code can outgrow fixed widths
		if i%2 == 0 {
			n = 1 + rng.Int63n(int64(max(l.Capacity(OpScan), 1)))
		}
		code := l.indexBits(n)
		lg := 0.0 // log2 C(Elems, n)
		for j := int64(0); j < n; j++ {
			lg += math.Log2(float64(l.Elems-j)) - math.Log2(float64(n-j))
		}
		if float64(code) > math.Ceil(lg-1e-9)+2*float64(n) {
			t.Fatalf("%d of %d elements: a %d-bit code, ⌈log2 C⌉ = %.0f", n, l.Elems, code, math.Ceil(lg-1e-9))
		}
		if fixed := n * int64(bits.Len64(uint64(l.Elems-1))); code > fixed+2 {
			t.Fatalf("%d of %d elements: a %d-bit code, %d bits at a fixed width", n, l.Elems, code, fixed)
		}
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
		if int64(len(page)) != l.ResultSize(OpScan, int64(n)) || int64(len(page)) != 24+(codeBits(l.Elems, int64(n))+int64(n*l.Value)+7)/8 {
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
	r := request{4, []int64{512, 512}, 1000, 1099} // 2^18 elements, 7-bit values
	l := r.layout()
	bad := ScanResultPayload{Total: 0, Matches: []ScanMatch{{Index: 1, Value: 1000}}}
	if _, err := bad.Marshal(l); err == nil {
		t.Fatal("total below match count marshalled")
	}
	// An entry the layout cannot hold is refused, not truncated, and so are
	// matches out of index order.
	for _, ms := range [][]ScanMatch{
		{{Index: 1, Value: 999}}, {{Index: 1, Value: 1000 + 128}}, {{Index: 1 << 18, Value: 1000}}, {{Index: -1, Value: 1000}},
		{{Index: 5, Value: 1000}, {Index: 5, Value: 1001}}, {{Index: 6, Value: 1000}, {Index: 5, Value: 1000}},
	} {
		if _, err := (ScanResultPayload{Total: int64(len(ms)), Matches: ms}).Marshal(l); err == nil {
			t.Fatalf("%+v marshalled in %+v", ms, l)
		}
	}
	for _, inv := range []Layout{{Value: 32, Elems: -1}, {Value: 65, Elems: 1 << 18}, {Value: -1, Elems: 4}, {Value: 8, Elems: 1<<63 - 1}} {
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
	wrongLow := bytes.Clone(one)
	wrongLow[4] = 17
	refused("a low-bit count other than one record's 18", wrongLow, r.scan())
	wideValue := bytes.Clone(one)
	wideValue[5] = 8
	refused("a value wider than the request's range", wideValue, r.scan())
	padded := bytes.Clone(one) // 19 + 7 bits: the last byte has 6 padding bits
	padded[len(padded)-1] |= 0x80
	refused("a set padding bit", padded, r.scan())
	outside := bytes.Clone(one)
	putBits(outside[scanHeaderLen:], 19, 127, 7) // value 1000+127, past hi
	refused("a value outside the request's range", outside, r.scan())

	// A count the partition cannot hold is refused before anything is
	// allocated, whatever the page's length.
	hostile := make([]byte, scanHeaderLen)
	binary.LittleEndian.PutUint32(hostile, 1<<32-1)
	binary.LittleEndian.PutUint64(hostile[8:], 1<<32-1)
	refused("2^32-1 records of one element", hostile, request{8, []int64{1}, 7, 7}.scan())
	eight := make([]byte, scanHeaderLen+2)
	binary.LittleEndian.PutUint32(eight, 8)
	binary.LittleEndian.PutUint64(eight[8:], 8)
	refused("8 records of a 4-element partition", eight, request{8, []int64{4}, 7, 7}.scan())
}

// forge is op's result page for r (decoded at the widest element) holding
// the records idx and vals, coded as Marshal codes them but without its
// checks, so a test can write what no encoder does: indexes that repeat or
// fall within a high part's bucket, or lie past the partition. The high
// parts must not fall and must lie in the code, and each value must fit
// the value width.
func forge(op Opcode, r request, idx []int64, vals []uint64) []byte {
	l := requestLayout(r.sub, r.lo, r.hi)
	n := int64(len(idx))
	page := make([]byte, l.ResultSize(op, n))
	hdr, countAt := scanHeaderLen, 0
	if op == OpReduce {
		hdr, countAt = reduceHeaderLen, 24
	} else {
		binary.LittleEndian.PutUint64(page[8:], uint64(n)) // the total
	}
	binary.LittleEndian.PutUint32(page[countAt:], uint32(n))
	low := lowBits(l.Elems, n)
	page[countAt+4], page[countAt+5] = byte(low), byte(l.Value)
	code := page[hdr:]
	for i, x := range idx {
		putBits(code, i*low, uint64(x)&(1<<low-1), low)
		putBits(code, int(n)*low+int(x>>low)+i, 1, 1)
		putBits(code, int(l.indexBits(n))+i*l.Value, vals[i]-l.Lo, l.Value)
	}
	return page
}

// codeRequest is the partition the hostile codes below are written for:
// 1 000 elements, so three records keep 8 low bits each and their high
// parts 0 … 3 take three ones and three zeros, and values of 10 bits.
var codeRequest = request{8, []int64{1000}, 10, 1010}

// hostileCode is a result page a decoder must refuse, and what is wrong
// with it.
type hostileCode struct {
	what string
	page []byte
}

// hostileCodes are index codes a decoder must refuse, each a page of op's
// result over codeRequest: a count of records other than the high parts'
// ones (one 1 too few, one too many), an index repeated and one below the
// index before it (in one bucket), and one past the partition (in the
// last bucket).
func hostileCodes(op Opcode) []hostileCode {
	r, vals := codeRequest, []uint64{10, 500, 1010}
	hdr := scanHeaderLen
	if op == OpReduce {
		hdr = reduceHeaderLen
	}
	high := hdr*8 + 3*8 // where the high parts begin: after three 8-bit low parts
	valid := forge(op, r, []int64{5, 6, 9}, vals)
	fewer, more := bytes.Clone(valid), bytes.Clone(valid)
	fewer[(high+2)/8] &^= 1 << ((high + 2) % 8) // the third record's one
	more[(high+5)/8] |= 1 << ((high + 5) % 8)   // the last bucket's separator
	return []hostileCode{
		{"one 1 too few", fewer},
		{"one 1 too many", more},
		{"a repeated index", forge(op, r, []int64{5, 5, 9}, vals)},
		{"a falling index", forge(op, r, []int64{6, 5, 9}, vals)},
		{"an index past 1 000", forge(op, r, []int64{1, 2, 3<<8 | 255}, vals)},
	}
}

// TestResultCodeRefusals: both decoders accept the valid code the hostile
// ones are cut from and refuse every hostile one.
func TestResultCodeRefusals(t *testing.T) {
	r := codeRequest
	decode := map[Opcode]func([]byte) error{
		OpScan: func(page []byte) error { _, err := UnmarshalScanResultPayload(page, r.scan()); return err },
		OpReduce: func(page []byte) error {
			_, err := UnmarshalReduceResultPayload(page, r.reduce(MaxReduceTopK))
			return err
		},
	}
	for op, dec := range decode {
		if err := dec(forge(op, r, []int64{5, 6, 9}, []uint64{10, 500, 1010})); err != nil {
			t.Fatalf("%v: a valid code refused: %v", op, err)
		}
		for _, h := range hostileCodes(op) {
			if err := dec(h.page); err == nil {
				t.Errorf("%v: %s unmarshalled", op, h.what)
			}
		}
	}
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
		// Three entries travel in index order, not the top-k order they
		// return in.
		p := ReduceResultPayload{Value: 12345, Index: 678, Count: 90, TopK: topK(matchesFor(r, min(3, l.Capacity(OpReduce))))}
		n := len(p.TopK)
		page, err := p.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpReduce, int64(n)) || int64(len(page)) != 32+(codeBits(l.Elems, int64(n))+int64(n*l.Value)+7)/8 {
			t.Fatalf("%+v: result is %d bytes, want %d", l, len(page), l.ResultSize(OpReduce, int64(n)))
		}
		got, err := UnmarshalReduceResultPayload(page, r.reduce(3))
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
	// Entries out of top-k order, or naming one element twice, are refused.
	for _, ms := range [][]ScanMatch{
		{{Index: 4, Value: 1}, {Index: 3, Value: 2}}, {{Index: 4, Value: 2}, {Index: 3, Value: 2}}, {{Index: 3, Value: 2}, {Index: 3, Value: 1}},
	} {
		if _, err := (ReduceResultPayload{Count: 2, TopK: ms}).Marshal(r.layout()); err == nil {
			t.Fatalf("top-k %+v marshalled", ms)
		}
	}
	two, err := ReduceResultPayload{Count: 2, TopK: topK(matchesFor(r, 2))}.Marshal(r.layout())
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
// predicate spans, any in-range result — matches in index order, top-k
// entries in top-k order, up to a full page of them — is exactly
// LayoutFor's ResultSize long and decodes, under the request it answers, to
// what was encoded.
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
		if rng.Intn(16) == 0 {
			n = capacity
		}
		if n == 0 || r.top() < r.lo {
			return nil
		}
		ms := make([]ScanMatch, n)
		for i := range ms {
			ms[i] = ScanMatch{Index: rng.Int63n(r.layout().Elems), Value: value(r)}
		}
		slices.SortFunc(ms, func(a, b ScanMatch) int { return cmp.Compare(a.Index, b.Index) })
		return slices.CompactFunc(ms, func(a, b ScanMatch) bool { return a.Index == b.Index })
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
			TopK: topK(matches(r, min(l.Capacity(OpReduce), MaxReduceTopK)))}
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
	{8, []int64{1}, 7, 7},         // one element and a 0-bit value: a 1-bit code
	{8, []int64{1 << 18}, 5, 5},   // a 0-bit value
	{8, []int64{1}, 0, all},       // one element
	{8, []int64{2}, 0, 1},         // 1-bit values
	{8, []int64{105}, 1000, 1099}, // 7-bit values
	{1, []int64{300}, 0, all},     // a value narrower than the request allows
	{8, []int64{1 << 62}, 0, all}, // 2^62 elements and 64-bit values, the widest
}

// resultSeeds adds a result decoder's seed corpus for op's results: a valid
// result of two records (from valid, which makes one of n records) for
// every fuzz request, then the malformed shapes a decoder must refuse — a
// header cut short, a count past a one-element partition's, a count past a
// page's capacity, a result missing its last byte, and a result padded to a
// whole page. The Elias–Fano seeds follow: valid codes of 0 to 3 records
// and of every element (L = 0), and the codes a decoder must refuse — a
// low-bit count other than the canonical one, hostileCodes, and a set
// padding bit.
func resultSeeds(f *testing.F, op Opcode, valid func(r request, n int) []byte) {
	countAt := 0 // where the header's record count lies
	if op == OpReduce {
		countAt = 24
	}
	add := func(page []byte, r request) { f.Add(page, r.sub[0], r.lo, r.hi) }
	for _, r := range fuzzRequests {
		add(valid(r, 2), r)
	}
	r := fuzzRequests[4]
	good := valid(r, 2)
	add(good[:countAt+3], r)
	none := bytes.Clone(valid(fuzzRequests[0], 2))
	binary.LittleEndian.PutUint32(none[countAt:], 2)
	add(none, fuzzRequests[0])
	past := bytes.Clone(good)
	binary.LittleEndian.PutUint32(past[countAt:], uint32(r.layout().Capacity(op)+1))
	add(past, r)
	add(good[:len(good)-1], r)
	add(append(bytes.Clone(good), make([]byte, PageSize-len(good))...), r)

	r = codeRequest
	for n := range 4 {
		add(valid(r, n), r)
	}
	dense := request{8, []int64{40}, 5, 9}
	add(valid(dense, 40), dense)
	three := valid(r, 3) // 3·9 + 3 code bits and 3·10 value bits: 4 padding bits
	wrongLow := bytes.Clone(three)
	wrongLow[countAt+4]++
	add(wrongLow, r)
	for _, h := range hostileCodes(op) {
		add(h.page, r)
	}
	padded := bytes.Clone(three)
	padded[len(padded)-1] |= 0x80
	add(padded, r)
}

// headerLayout is the layout a result's header names, its value width byte
// at off, for a request over sub matching [lo, hi].
func headerLayout(page []byte, off int, sub []int64, lo, hi uint64) Layout {
	l := requestLayout(sub, lo, hi)
	l.Value = int(page[off])
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
	resultSeeds(f, OpScan, func(r request, n int) []byte {
		page, err := ScanResultPayload{Total: 99, NextCursor: 77, Matches: matchesFor(r, min(n, r.layout().Capacity(OpScan)))}.Marshal(r.layout())
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
		out, err := p.Marshal(headerLayout(page, 5, req.Sub, lo, hi))
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
	resultSeeds(f, OpReduce, func(r request, n int) []byte {
		page, err := ReduceResultPayload{Value: 5, Index: 5, Count: 40, TopK: topK(matchesFor(r, min(n, r.layout().Capacity(OpReduce))))}.Marshal(r.layout())
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
		out, err := p.Marshal(headerLayout(page, 29, req.Sub, lo, hi))
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

// FuzzResultRoundTrip: fuzzed indexes and values over a partition of the
// fuzzed size and range — the indexes sorted and without repeats, each value
// one of 256 spread over the range so that top-k entries tie — marshal to
// exactly ResultSize bytes and decode to what was encoded: a scan's matches
// in index order, a reduction's top-k entries in top-k order although they
// travel in index order.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add(int64(1000), uint64(10), uint64(1010), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(1), uint64(7), uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(int64(40), uint64(5), uint64(9), bytes.Repeat([]byte{0xA5, 3}, 200))
	f.Add(int64(1<<62), uint64(0), all, bytes.Repeat([]byte{0xFF, 0, 0x80}, 300))
	f.Fuzz(func(t *testing.T, elems int64, lo, hi uint64, raw []byte) {
		if elems <= 0 || lo > hi {
			return
		}
		r := request{8, []int64{elems}, lo, hi}
		l := r.layout()
		var ms []ScanMatch
		for ; len(raw) >= 9; raw = raw[9:] {
			b := uint64(raw[8])
			v := b<<56 | b<<24 | b
			if span := hi - lo; span != all {
				v %= span + 1
			}
			ms = append(ms, ScanMatch{Index: int64(binary.LittleEndian.Uint64(raw) % uint64(l.Elems)), Value: lo + v})
		}
		slices.SortFunc(ms, func(a, b ScanMatch) int { return cmp.Compare(a.Index, b.Index) })
		ms = slices.CompactFunc(ms, func(a, b ScanMatch) bool { return a.Index == b.Index })

		sp := ScanResultPayload{Total: 1 << 40, NextCursor: 3, Matches: ms[:min(len(ms), l.Capacity(OpScan))]}
		if len(sp.Matches) == 0 {
			sp.Matches = nil
		}
		page, err := sp.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpScan, int64(len(sp.Matches))) {
			t.Fatalf("scan result of %d matches is %d bytes, want %d", len(sp.Matches), len(page), l.ResultSize(OpScan, int64(len(sp.Matches))))
		}
		if got, err := UnmarshalScanResultPayload(page, r.scan()); err != nil || !reflect.DeepEqual(got, sp) {
			t.Fatalf("scan round trip: %+v, %v; want %+v", got, err, sp)
		}

		rp := ReduceResultPayload{Index: -1, TopK: topK(ms[:min(len(ms), l.Capacity(OpReduce), MaxReduceTopK)])}
		if len(rp.TopK) == 0 {
			rp.TopK = nil
		}
		if page, err = rp.Marshal(l); err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpReduce, int64(len(rp.TopK))) {
			t.Fatalf("top-%d result is %d bytes, want %d", len(rp.TopK), len(page), l.ResultSize(OpReduce, int64(len(rp.TopK))))
		}
		if got, err := UnmarshalReduceResultPayload(page, r.reduce(MaxReduceTopK)); err != nil || !reflect.DeepEqual(got, rp) {
			t.Fatalf("top-k round trip: %+v, %v; want %+v", got, err, rp)
		}
	})
}
