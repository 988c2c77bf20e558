package proto

import (
	"bytes"
	"encoding/binary"
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

// layouts is every record layout a result can take.
var layouts = func() []Layout {
	var ls []Layout
	for _, idx := range []int{4, 8} {
		for _, val := range []int{1, 2, 4, 8} {
			ls = append(ls, Layout{Index: idx, Value: val})
		}
	}
	return ls
}()

// widest is the largest value an element of l's width holds.
func widest(l Layout) uint64 { return ^uint64(0) >> (64 - 8*l.Value) }

func TestLayoutFor(t *testing.T) {
	cases := []struct {
		es   int
		sub  []int64
		want Layout
	}{
		{4, []int64{512, 512}, Layout{4, 4}},
		{1, []int64{1 << 16, 1 << 16}, Layout{4, 1}},          // exactly 2^32 elements
		{2, []int64{1 << 16, 1<<16 + 1}, Layout{8, 2}},        // one row past 2^32
		{8, []int64{1 << 20, 1 << 20, 1 << 20}, Layout{8, 8}}, // 2^60: no overflow
		{4, []int64{0, 1 << 40}, Layout{4, 4}},                // empty: fails its bounds check
	}
	for _, c := range cases {
		if got := LayoutFor(c.es, c.sub); got != c.want {
			t.Errorf("LayoutFor(%d, %v) = %+v, want %+v", c.es, c.sub, got, c.want)
		}
	}
}

// TestResultCapacities pins how many records one page holds per layout: the
// README's capacity table.
func TestResultCapacities(t *testing.T) {
	want := map[Layout][2]int{ // {scan, reduce}
		{4, 1}: {814, 812}, {4, 2}: {678, 677}, {4, 4}: {509, 508}, {4, 8}: {339, 338},
		{8, 1}: {452, 451}, {8, 2}: {407, 406}, {8, 4}: {339, 338}, {8, 8}: {254, 254},
	}
	for _, l := range layouts {
		got := [2]int{l.Capacity(OpScan), l.Capacity(OpReduce)}
		if got != want[l] {
			t.Errorf("%+v: capacity %v, want %v", l, got, want[l])
		}
		if got[1] < MaxReduceTopK {
			t.Errorf("%+v: a top-%d request does not fit (%d)", l, MaxReduceTopK, got[1])
		}
	}
}

func TestScanResultPayloadRoundTrip(t *testing.T) {
	for _, l := range layouts {
		p := ScanResultPayload{
			Total:      1000,
			NextCursor: 555,
			Matches: []ScanMatch{
				{Index: 0, Value: 1},
				{Index: 42, Value: widest(l)},
				{Index: 554, Value: 9},
			},
		}
		page, err := p.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpScan, 3) || len(page) != 24+3*(l.Index+l.Value) {
			t.Fatalf("%+v: result is %d bytes, want %d", l, len(page), l.ResultSize(OpScan, 3))
		}
		got, err := UnmarshalScanResultPayload(page)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%+v round trip: %+v != %+v", l, got, p)
		}
	}

	// A complete scan encodes NextCursor -1 as all-ones on the wire.
	done := ScanResultPayload{Total: 3, NextCursor: -1, Matches: []ScanMatch{{Index: 1, Value: 2}}}
	page, err := done.Marshal(Layout{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint64(page[16:]) != ScanCursorNone {
		t.Fatal("complete scan did not encode cursor-none")
	}
	got, err := UnmarshalScanResultPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextCursor != -1 {
		t.Fatalf("next cursor = %d", got.NextCursor)
	}
}

func TestScanResultPayloadFullPage(t *testing.T) {
	// Exactly Capacity entries fill the page; one more must fail.
	for _, l := range layouts {
		n := l.Capacity(OpScan)
		full := ScanResultPayload{Total: int64(n) + 50, NextCursor: 7}
		for i := 0; i < n; i++ {
			full.Matches = append(full.Matches, ScanMatch{Index: int64(i), Value: uint64(i*3) & widest(l)})
		}
		page, err := full.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) > PageSize || len(page)+l.Index+l.Value <= PageSize {
			t.Fatalf("%+v: a full result is %d bytes", l, len(page))
		}
		got, err := UnmarshalScanResultPayload(page)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("%+v: full page round trip mismatch", l)
		}
		over := full
		over.Matches = append(over.Matches, ScanMatch{Index: 1 << 20})
		over.Total++
		if _, err := over.Marshal(l); err == nil {
			t.Fatalf("%+v: oversized match list marshalled", l)
		}
	}
}

func TestScanResultPayloadValidation(t *testing.T) {
	bad := ScanResultPayload{Total: 0, Matches: []ScanMatch{{Index: 1}}}
	if _, err := bad.Marshal(Layout{4, 4}); err == nil {
		t.Fatal("total below match count marshalled")
	}
	// An entry the layout cannot hold is refused, not truncated.
	wide := ScanResultPayload{Total: 1, Matches: []ScanMatch{{Index: 1, Value: 256}}}
	if _, err := wide.Marshal(Layout{4, 1}); err == nil {
		t.Fatal("value wider than the element marshalled")
	}
	far := ScanResultPayload{Total: 1, Matches: []ScanMatch{{Index: 1 << 32}}}
	if _, err := far.Marshal(Layout{4, 8}); err == nil {
		t.Fatal("index past 2^32 marshalled in a 4-byte index")
	}
	if _, err := far.Marshal(Layout{8, 3}); err == nil {
		t.Fatal("3-byte values marshalled")
	}
	// A count claiming more matches than the result holds must be rejected.
	page := make([]byte, scanHeaderLen)
	binary.LittleEndian.PutUint32(page, 1)
	page[4], page[5] = 4, 4
	binary.LittleEndian.PutUint64(page[8:], 1)
	if _, err := UnmarshalScanResultPayload(page); err == nil {
		t.Fatal("truncated match list unmarshalled")
	}
	// So must a result padded past what it holds, and an unknown layout.
	if _, err := UnmarshalScanResultPayload(append(page, make([]byte, 16)...)); err == nil {
		t.Fatal("padded result unmarshalled")
	}
	page[4] = 2
	if _, err := UnmarshalScanResultPayload(append(page, make([]byte, 6)...)); err == nil {
		t.Fatal("2-byte index unmarshalled")
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
	for _, l := range layouts {
		p := ReduceResultPayload{
			Value: 12345,
			Index: 678,
			Count: 90,
			TopK: []ScanMatch{
				{Index: 678, Value: widest(l)},
				{Index: 9, Value: 120},
			},
		}
		page, err := p.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(page)) != l.ResultSize(OpReduce, 2) || len(page) != 32+2*(l.Index+l.Value) {
			t.Fatalf("%+v: result is %d bytes, want %d", l, len(page), l.ResultSize(OpReduce, 2))
		}
		got, err := UnmarshalReduceResultPayload(page)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("%+v round trip: %+v != %+v", l, got, p)
		}
	}

	// Index -1 (no element attained the result) survives the trip, in a
	// result that is its header alone.
	none := ReduceResultPayload{Value: 0, Index: -1, Count: 0}
	page, err := none.Marshal(Layout{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != reduceHeaderLen {
		t.Fatalf("scalar result is %d bytes", len(page))
	}
	got, err := UnmarshalReduceResultPayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != -1 || got.Count != 0 || len(got.TopK) != 0 {
		t.Fatalf("empty result round trip: %+v", got)
	}
}

func TestReduceResultPayloadValidation(t *testing.T) {
	for _, l := range layouts {
		over := ReduceResultPayload{TopK: make([]ScanMatch, l.Capacity(OpReduce)+1)}
		if _, err := over.Marshal(l); err == nil {
			t.Fatalf("%+v: oversized top-k marshalled", l)
		}
	}
	neg := ReduceResultPayload{Count: -1}
	if _, err := neg.Marshal(Layout{4, 4}); err == nil {
		t.Fatal("negative count marshalled")
	}
	page := make([]byte, reduceHeaderLen)
	binary.LittleEndian.PutUint32(page[24:], 1)
	page[28], page[29] = 8, 8
	if _, err := UnmarshalReduceResultPayload(page); err == nil {
		t.Fatal("truncated top-k list unmarshalled")
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

// resultSeeds adds a result decoder's seed corpus for op's results: a valid
// result of every layout (from valid), then the malformed shapes a decoder
// must refuse, each made from the first of them — a header cut short, a
// count past the layout's capacity, a last record missing its last byte, and
// the result padded to a whole page.
func resultSeeds(f *testing.F, op Opcode, valid func(Layout) []byte) {
	countAt := 0 // where the header's record count lies
	if op == OpReduce {
		countAt = 24
	}
	for _, l := range layouts {
		f.Add(valid(l))
	}
	good := valid(layouts[0])
	f.Add(good[:countAt+3])
	past := bytes.Clone(good)
	binary.LittleEndian.PutUint32(past[countAt:], uint32(layouts[0].Capacity(op)+1))
	f.Add(past)
	f.Add(good[:len(good)-1])
	f.Add(append(bytes.Clone(good), make([]byte, PageSize-len(good))...))
}

// headerLayout is the layout a result's header names: its width bytes at off.
func headerLayout(page []byte, off int) Layout {
	return Layout{Index: int(page[off]), Value: int(page[off+1])}
}

// FuzzUnmarshalScanResultPayload: same contract for result pages, each
// re-encoded in the layout its header names.
func FuzzUnmarshalScanResultPayload(f *testing.F) {
	seed, _ := ScanResultPayload{Total: 2, NextCursor: -1, Matches: []ScanMatch{{Index: 1, Value: 2}}}.Marshal(Layout{8, 8})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, PageSize))
	resultSeeds(f, OpScan, func(l Layout) []byte {
		page, err := ScanResultPayload{Total: 9, NextCursor: 77, Matches: []ScanMatch{
			{Index: 3, Value: widest(l)}, {Index: 76, Value: 1},
		}}.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		return page
	})
	f.Fuzz(func(t *testing.T, page []byte) {
		p, err := UnmarshalScanResultPayload(page)
		if err != nil {
			return
		}
		out, err := p.Marshal(headerLayout(page, 4))
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalScanResultPayload(out)
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

// FuzzUnmarshalReduceResultPayload: same contract for reduce results.
func FuzzUnmarshalReduceResultPayload(f *testing.F) {
	seed, _ := ReduceResultPayload{Value: 7, Index: 1, Count: 2, TopK: []ScanMatch{{Index: 1, Value: 7}}}.Marshal(Layout{8, 8})
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x03}, PageSize))
	resultSeeds(f, OpReduce, func(l Layout) []byte {
		page, err := ReduceResultPayload{Value: widest(l), Index: 5, Count: 40, TopK: []ScanMatch{
			{Index: 5, Value: widest(l)}, {Index: 39, Value: 1},
		}}.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		return page
	})
	f.Fuzz(func(t *testing.T, page []byte) {
		p, err := UnmarshalReduceResultPayload(page)
		if err != nil {
			return
		}
		out, err := p.Marshal(headerLayout(page, 28))
		if err != nil {
			t.Fatalf("parsed payload failed to re-marshal: %v", err)
		}
		q, err := UnmarshalReduceResultPayload(out)
		if err != nil {
			t.Fatalf("re-marshalled payload failed to parse: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatal("payload not stable under marshal round-trip")
		}
	})
}
