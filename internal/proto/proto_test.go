package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCommandRoundTrip(t *testing.T) {
	cases := []Command{
		NewRead(7, 0x1000),
		NewWrite(9, 0x2000),
		NewOpenSpace(3, 0x3000, true),
		NewOpenSpace(3, 0x3000, false),
		NewCloseSpace(12),
		NewDeleteSpace(4),
	}
	for _, c := range cases {
		got, err := Unmarshal(c.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", c.Opcode(), err)
		}
		if got != c {
			t.Fatalf("%v: round-trip mismatch", c.Opcode())
		}
	}
	if NewOpenSpace(1, 0, true).CreateFlag() != true {
		t.Fatal("create flag lost")
	}
	if NewOpenSpace(1, 0, false).CreateFlag() != false {
		t.Fatal("create flag invented")
	}
	if NewRead(7, 0x1000).Target() != 7 {
		t.Fatal("target lost")
	}
}

func TestConventionalCommandsPassThrough(t *testing.T) {
	// A conventional NVMe entry (reserved bit clear) is not extended and is
	// rejected by Unmarshal — the device routes it to the 1-D path (§5.3.1).
	var raw [CommandSize]byte
	raw[0] = 0x02 // conventional read opcode
	if IsExtended(raw) {
		t.Fatal("conventional entry classified as extended")
	}
	if _, err := Unmarshal(raw); err == nil {
		t.Fatal("conventional entry unmarshalled as extended")
	}
	// Extended entries are recognized.
	ext := NewRead(1, 0).Marshal()
	if !IsExtended(ext) {
		t.Fatal("extended entry not recognized")
	}
}

func TestUnknownOpcodeRejected(t *testing.T) {
	c := newCommand(Opcode(0x55), 0, 0, false)
	_, err := Unmarshal(c.Marshal())
	if err == nil {
		t.Fatal("unknown opcode accepted")
	}
	// The sentinel distinguishes "device lacks this command" (an extended
	// entry with an unimplemented opcode) from a malformed entry, so the
	// dispatcher can answer StatusUnsupportedOp instead of StatusInvalidField.
	if !errors.Is(err, ErrUnknownOpcode) {
		t.Fatalf("unknown opcode error = %v, want ErrUnknownOpcode", err)
	}
	var conventional [CommandSize]byte
	if _, err := Unmarshal(conventional); errors.Is(err, ErrUnknownOpcode) {
		t.Fatal("non-extended entry misreported as an unsupported opcode")
	}
}

func TestCoordPayloadRoundTrip(t *testing.T) {
	f := func(rank uint8, c0, s0 uint32) bool {
		r := 1 + int(rank)%MaxDims
		p := CoordPayload{Coord: make([]int64, r), Sub: make([]int64, r)}
		for i := range p.Coord {
			p.Coord[i] = int64(c0+uint32(i)) % MaxDimSize
			p.Sub[i] = 1 + int64(s0+uint32(i))%(MaxDimSize-1)
		}
		page, err := p.Marshal()
		if err != nil {
			return false
		}
		if len(page) != PageSize {
			return false
		}
		got, err := UnmarshalCoordPayload(page)
		if err != nil {
			return false
		}
		for i := range p.Coord {
			if got.Coord[i] != p.Coord[i] || got.Sub[i] != p.Sub[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMarshalIntoDirtyPage: a page encoded over whatever the last request
// left in it is the page Marshal would have allocated, for every payload a
// client sends in a pooled page; and the value decoder agrees with the slice
// one.
func TestMarshalIntoDirtyPage(t *testing.T) {
	coord, sub := []int64{3, 1, 4}, []int64{1, 5, 9}
	for name, pl := range map[string]interface {
		Marshal() ([]byte, error)
		MarshalInto([]byte) error
	}{
		"coord":  CoordPayload{Coord: coord, Sub: sub},
		"scan":   ScanPayload{Coord: coord, Sub: sub, Lo: 2, Hi: 6, Cursor: 5, Max: 3},
		"reduce": ReducePayload{Coord: coord, Sub: sub, Op: ReduceOpTopK, K: 5, HasPred: true, Lo: 1, Hi: 2},
	} {
		want, err := pl.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		dirty := bytes.Repeat([]byte{0xFF}, PageSize)
		if err := pl.MarshalInto(dirty); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dirty, want) {
			t.Errorf("%s: MarshalInto over a dirty page differs from Marshal", name)
		}
	}
	if err := (CoordPayload{Coord: coord, Sub: sub[:2]}).MarshalInto(make([]byte, PageSize)); err == nil {
		t.Error("MarshalInto accepted a rank mismatch")
	}
	page, _ := CoordPayload{Coord: coord, Sub: sub}.Marshal()
	var c Coords
	if err := c.Unmarshal(page); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Coord(), coord) || !reflect.DeepEqual(c.Sub(), sub) {
		t.Errorf("Coords decoded %v/%v, want %v/%v", c.Coord(), c.Sub(), coord, sub)
	}
}

func TestCoordPayloadValidation(t *testing.T) {
	if _, err := (CoordPayload{Coord: []int64{1}, Sub: []int64{1, 2}}).Marshal(); err == nil {
		t.Error("rank mismatch accepted")
	}
	if _, err := (CoordPayload{}).Marshal(); err == nil {
		t.Error("empty payload accepted")
	}
	big := make([]int64, MaxDims+1)
	for i := range big {
		big[i] = 1
	}
	if _, err := (CoordPayload{Coord: big, Sub: big}).Marshal(); err == nil {
		t.Error("33 dimensions accepted (limit is 32)")
	}
	if _, err := (CoordPayload{Coord: []int64{MaxDimSize}, Sub: []int64{1}}).Marshal(); err == nil {
		t.Error("25-bit coordinate accepted")
	}
	if _, err := (CoordPayload{Coord: []int64{0}, Sub: []int64{0}}).Marshal(); err == nil {
		t.Error("zero sub-dimension accepted")
	}
	if _, err := UnmarshalCoordPayload([]byte{1}); err == nil {
		t.Error("short page accepted")
	}
	if _, err := UnmarshalCoordPayload(make([]byte, 4)); err == nil {
		t.Error("zero-rank page accepted")
	}
}

func TestSpacePayloadRoundTrip(t *testing.T) {
	p := SpacePayload{ElemSize: 8, Dims: []int64{32768, 32768}}
	page, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSpacePayload(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.ElemSize != 8 || len(got.Dims) != 2 || got.Dims[0] != 32768 {
		t.Fatalf("round-trip = %+v", got)
	}
	// Zero element size is "unspecified": legal on the wire (views of an
	// existing space may not care), rejected only at creation.
	zero, err := (SpacePayload{ElemSize: 0, Dims: []int64{1}}).Marshal()
	if err != nil {
		t.Errorf("zero element size rejected: %v", err)
	} else if got, err := UnmarshalSpacePayload(zero); err != nil || got.ElemSize != 0 {
		t.Errorf("zero element size round-trip = %+v, %v", got, err)
	}
	if _, err := (SpacePayload{ElemSize: -1, Dims: []int64{1}}).Marshal(); err == nil {
		t.Error("negative element size accepted")
	}
	if _, err := (SpacePayload{ElemSize: 4, Dims: []int64{1 << 25}}).Marshal(); err == nil {
		t.Error("oversized dimension accepted")
	}
	if _, err := UnmarshalSpacePayload(nil); err == nil {
		t.Error("nil page accepted")
	}
}

func TestStatusStrings(t *testing.T) {
	for s := StatusOK; s <= StatusUnsupportedOp; s++ {
		if s.String() == "" {
			t.Fatalf("status %d has no string", s)
		}
	}
	for _, op := range []Opcode{OpRead, OpWrite, OpOpenSpace, OpCloseSpace, OpDeleteSpace, Opcode(0)} {
		if op.String() == "" {
			t.Fatalf("opcode %d has no string", op)
		}
	}
}
