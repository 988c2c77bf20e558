package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestFrameRequestRoundTrip: request frames survive write/read for every
// combination of present and absent sections.
func TestFrameRequestRoundTrip(t *testing.T) {
	page, err := CoordPayload{Coord: []int64{1, 2}, Sub: []int64{3, 4}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := []Request{
		{Seq: 1, Cmd: NewRead(7, 0).Marshal(), Payload: page},
		{Seq: 2, Cmd: NewWrite(7, 0).Marshal(), Payload: page, Data: []byte("write data")},
		{Seq: 1<<64 - 1, Cmd: NewCloseSpace(9).Marshal()},
		{Seq: 0, Cmd: NewDeleteSpace(3).Marshal(), Data: []byte{0}},
	}
	var buf bytes.Buffer
	for _, req := range cases {
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range cases {
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Cmd != want.Cmd ||
			!bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("frame %d corrupted in transit", i)
		}
	}
	if _, err := ReadRequest(&buf, 0); err != io.EOF {
		t.Fatalf("read past last frame: %v, want io.EOF", err)
	}
}

// TestFrameResponseRoundTrip: response frames carry the completion and data
// faithfully, including out-of-order sequence numbers.
func TestFrameResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Seq: 9, Cpl: Completion{Status: StatusOK, Result0: 5, Result1: 6}, Data: []byte("tile")},
		{Seq: 2, Cpl: Completion{Status: StatusUnknownView}},
		{Seq: 3, Cpl: Completion{Status: StatusUnsupportedOp, Result0: 1 << 63}},
	}
	var buf bytes.Buffer
	for _, resp := range cases {
		if err := WriteResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range cases {
		got, err := ReadResponse(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Cpl != want.Cpl || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("frame %d corrupted in transit", i)
		}
	}
}

// TestFrameLimits: an announced length beyond the reader's bound fails with
// ErrFrameTooLarge before any allocation-sized read.
func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(1<<30))
	buf.Write(make([]byte, 64))
	raw := buf.Bytes()
	if _, err := ReadRequest(bytes.NewReader(raw), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadResponse(bytes.NewReader(raw), 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response frame: %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameTruncation: EOF inside a frame is io.ErrUnexpectedEOF (a cut
// connection), never a silent short frame.
func TestFrameTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteRequest(&full, Request{Seq: 1, Cmd: NewRead(1, 0).Marshal(), Data: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	whole := full.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, err := ReadRequest(bytes.NewReader(whole[:cut]), 0)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes parsed successfully", cut, len(whole))
		}
	}
}

// FuzzReadRequest: arbitrary bytes must never panic, every decoder form must
// agree on them, and anything that parses must re-frame byte-identically.
func FuzzReadRequest(f *testing.F) {
	var seedBuf bytes.Buffer
	page, _ := CoordPayload{Coord: []int64{1}, Sub: []int64{2}}.Marshal()
	WriteRequest(&seedBuf, Request{Seq: 3, Cmd: NewRead(1, 0).Marshal(), Payload: page, Data: []byte("x")})
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecodersAgree(t, "fuzz input", raw, 1<<16)
		req, err := ReadRequest(bytes.NewReader(raw), 1<<16)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteRequest(&out, req); err != nil {
			t.Fatalf("parsed request failed to re-frame: %v", err)
		}
		back, err := ReadRequest(&out, 1<<16)
		if err != nil {
			t.Fatalf("re-framed request failed to parse: %v", err)
		}
		if back.Seq != req.Seq || back.Cmd != req.Cmd ||
			!bytes.Equal(back.Payload, req.Payload) || !bytes.Equal(back.Data, req.Data) {
			t.Fatal("request not stable under frame round-trip")
		}
	})
}

// FuzzReadResponse: same contract for response frames.
func FuzzReadResponse(f *testing.F) {
	var seedBuf bytes.Buffer
	WriteResponse(&seedBuf, Response{Seq: 3, Cpl: Completion{Status: StatusOK, Result0: 1}, Data: []byte("y")})
	f.Add(seedBuf.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecodersAgree(t, "fuzz input", raw, 1<<16)
		resp, err := ReadResponse(bytes.NewReader(raw), 1<<16)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteResponse(&out, resp); err != nil {
			t.Fatalf("parsed response failed to re-frame: %v", err)
		}
		back, err := ReadResponse(&out, 1<<16)
		if err != nil {
			t.Fatalf("re-framed response failed to parse: %v", err)
		}
		if back.Seq != resp.Seq || back.Cpl != resp.Cpl || !bytes.Equal(back.Data, resp.Data) {
			t.Fatal("response not stable under frame round-trip")
		}
	})
}
